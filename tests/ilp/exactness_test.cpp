// Bit-exactness of the LP kernels. Work on the simplex inner loops is meant
// to keep every pivot, which holds only if every value the kernels compute
// compares equal to what the straightforward loops compute. These tests hold
// them to that with `==`, not a tolerance, so a change that reorders a sum
// fails here before it shows up as a changed plan in a golden diff.
//
//   EtaFileExactness  the sparse LU's FTRAN/BTRAN after up to 160 eta updates
//                     against the eta file applied as (row, value) lists,
//                     oldest first (FTRAN) and newest first (BTRAN), each
//                     list in ascending row order;
//   SimplexDigest     status, iterations, factor counters, objective and x
//                     of cold and warm-started BoundedSimplex solves over
//                     seeded LPs, folded into one pinned digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "hetpar/ilp/basis_factor.hpp"
#include "hetpar/ilp/simplex.hpp"
#include "hetpar/support/rng.hpp"

namespace hetpar::ilp {
namespace {

using Column = std::vector<std::pair<int, double>>;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Eta file against the reference list loops
// ---------------------------------------------------------------------------

/// The product-form eta as a list: the update's column w without the pivot
/// slot and without entries at most 1e-13 * |pivot| (the LU's drop rule).
struct ListEta {
  int slot;
  double pivot;
  Column entries;
};

ListEta listEta(int r, const std::vector<double>& w) {
  ListEta eta{r, w[static_cast<std::size_t>(r)], {}};
  const double dropBelow = 1e-13 * std::fabs(eta.pivot);
  for (int i = 0; i < static_cast<int>(w.size()); ++i)
    if (i != r && std::fabs(w[static_cast<std::size_t>(i)]) > dropBelow)
      eta.entries.emplace_back(i, w[static_cast<std::size_t>(i)]);
  return eta;
}

/// FTRAN through `lu` (a factor without etas), then the etas oldest first.
void referenceFtran(const BasisFactor& lu, const std::vector<ListEta>& etas,
                    std::vector<double>& v) {
  lu.ftran(v);
  for (const ListEta& eta : etas) {
    double& vr = v[static_cast<std::size_t>(eta.slot)];
    if (vr == 0.0) continue;
    vr /= eta.pivot;
    for (const auto& [i, wi] : eta.entries) v[static_cast<std::size_t>(i)] -= wi * vr;
  }
}

/// The transposed etas newest first, then BTRAN through `lu`.
void referenceBtran(const BasisFactor& lu, const std::vector<ListEta>& etas,
                    std::vector<double>& v) {
  for (auto eta = etas.rbegin(); eta != etas.rend(); ++eta) {
    double s = v[static_cast<std::size_t>(eta->slot)];
    for (const auto& [i, wi] : eta->entries) s -= wi * v[static_cast<std::size_t>(i)];
    v[static_cast<std::size_t>(eta->slot)] = s / eta->pivot;
  }
  lu.btran(v);
}

/// Diagonally dominant sparse basis columns with fractional entries, so
/// that sums depend on their order.
std::vector<Column> randomBasis(Rng& rng, int m) {
  std::vector<Column> cols(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    Column& col = cols[static_cast<std::size_t>(s)];
    col.emplace_back(s, rng.uniform(3.0, 7.0) * (rng.chance(0.5) ? 1.0 : -1.0));
    for (int e = 0; e < 3; ++e) {
      const int row = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
      if (std::none_of(col.begin(), col.end(), [row](const auto& p) { return p.first == row; }))
        col.emplace_back(row, rng.uniform(-1.0, 1.0));
    }
  }
  return cols;
}

/// A vector with about `density` of its entries nonzero.
std::vector<double> randomVector(Rng& rng, int m, double density) {
  std::vector<double> v(static_cast<std::size_t>(m), 0.0);
  for (double& x : v)
    if (rng.chance(density)) x = rng.uniform(-10.0, 10.0);
  return v;
}

void expectExactSolves(const BasisFactor& factor, const BasisFactor& lu,
                       const std::vector<ListEta>& etas, Rng& rng, int m, const char* what) {
  for (const double density : {0.02, 0.1, 0.5, 1.0}) {
    const std::vector<double> b = randomVector(rng, m, density);
    std::vector<double> x = b, xRef = b;
    factor.ftran(x);
    referenceFtran(lu, etas, xRef);
    EXPECT_EQ(x, xRef) << "ftran " << what << ", m " << m << ", " << etas.size()
                       << " etas, density " << density;
    std::vector<double> y = b, yRef = b;
    factor.btran(y);
    referenceBtran(lu, etas, yRef);
    EXPECT_EQ(y, yRef) << "btran " << what << ", m " << m << ", " << etas.size()
                       << " etas, density " << density;
  }
}

class EtaFileExactness : public ::testing::TestWithParam<int> {};

TEST_P(EtaFileExactness, SolvesEqualTheListLoops) {
  const int m = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 0x9e3779b97f4a7c15ULL + 5);
  const std::vector<Column> cols = randomBasis(rng, m);
  std::vector<int> basic(static_cast<std::size_t>(m));
  std::iota(basic.begin(), basic.end(), 0);

  // `lu` keeps the initial factorization without etas: the reference
  // applies its own eta lists on top of it.
  const auto factor = makeSparseLuFactor();
  const auto lu = makeSparseLuFactor();
  ASSERT_TRUE(factor->factorize(cols, basic, m));
  ASSERT_TRUE(lu->factorize(cols, basic, m));
  std::vector<ListEta> etas;
  expectExactSolves(*factor, *lu, etas, rng, m, "without etas");

  // Up to the LU's eta cap of 160. Each update enters a random sparse
  // column at its largest FTRAN entry; some entries are then zeroed and
  // some shrunk below the drop tolerance, so dropped entries and exact
  // zeros both sit in the eta file.
  std::vector<double> w(static_cast<std::size_t>(m));
  for (int pivot = 1; pivot <= 160; ++pivot) {
    Column entering;
    for (int e = 0; e < 4; ++e) {
      const int row = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
      if (std::none_of(entering.begin(), entering.end(),
                       [row](const auto& p) { return p.first == row; }))
        entering.emplace_back(row, rng.uniform(-4.0, 4.0));
    }
    factor->ftranColumn(entering, w);
    const auto r = static_cast<int>(
        std::max_element(w.begin(), w.end(),
                         [](double a, double b) { return std::fabs(a) < std::fabs(b); }) -
        w.begin());
    for (int i = 0; i < m; ++i) {
      if (i == r) continue;
      if (rng.chance(0.05)) w[static_cast<std::size_t>(i)] = 0.0;
      else if (rng.chance(0.05)) w[static_cast<std::size_t>(i)] *= 1e-14;
    }
    ASSERT_TRUE(factor->update(r, w));
    etas.push_back(listEta(r, w));
    if (pivot % 40 == 0 || pivot == 1 || pivot == 7)
      expectExactSolves(*factor, *lu, etas, rng, m, "after updates");
  }
  EXPECT_EQ(factor->stats().etaUpdates, 160);

  // A copy carries the eta file exactly.
  const auto copy = makeSparseLuFactor();
  copy->assign(*factor);
  expectExactSolves(*copy, *lu, etas, rng, m, "on a copy");
}

INSTANTIATE_TEST_SUITE_P(Sizes, EtaFileExactness, ::testing::Values(5, 40, 64, 65, 200));

// ---------------------------------------------------------------------------
// Pinned simplex results
// ---------------------------------------------------------------------------

/// Random LP in computational standard form that is feasible by
/// construction (rhs = A x0 for a point x0 inside the bounds), with
/// fractional coefficients and a mix of bound shapes.
LpProblem digestLp(Rng& rng) {
  LpProblem lp;
  lp.numRows = static_cast<int>(rng.range(6, 80));
  const int structural = lp.numRows + static_cast<int>(rng.range(lp.numRows / 2, 2 * lp.numRows));
  std::vector<double> point;
  for (int j = 0; j < structural; ++j) {
    Column col;
    const int entries = static_cast<int>(rng.range(1, 5));
    for (int e = 0; e < entries; ++e) {
      const int row = static_cast<int>(rng.below(static_cast<std::uint64_t>(lp.numRows)));
      if (std::none_of(col.begin(), col.end(), [row](const auto& p) { return p.first == row; }))
        col.emplace_back(row, rng.uniform(0.25, 4.0) * (rng.chance(0.5) ? 1.0 : -1.0));
    }
    std::sort(col.begin(), col.end());
    lp.cols.push_back(std::move(col));
    double lo = 0.0, hi = 1.0;
    switch (rng.range(0, 4)) {
      case 0: break;                                                  // binary-like [0, 1]
      case 1: hi = double(rng.range(2, 9)); break;                    // [0, u]
      case 2: lo = -double(rng.range(1, 4)); hi = double(rng.range(0, 5)); break;
      case 3: hi = kInf; break;                                       // [0, inf)
      default: lo = hi = double(rng.range(0, 3)); break;              // fixed
    }
    lp.lower.push_back(lo);
    lp.upper.push_back(hi);
    lp.cost.push_back(rng.uniform(-5.0, 5.0));
    point.push_back(std::isfinite(hi) ? rng.uniform(lo, hi) : lo + rng.uniform(0.0, 3.0));
  }
  lp.rhs.assign(static_cast<std::size_t>(lp.numRows), 0.0);
  for (int j = 0; j < structural; ++j)
    for (const auto& [row, coef] : lp.cols[static_cast<std::size_t>(j)])
      lp.rhs[static_cast<std::size_t>(row)] += coef * point[static_cast<std::size_t>(j)];
  // Slack columns on about half the rows turn them into inequalities.
  for (int i = 0; i < lp.numRows; ++i) {
    if (!rng.chance(0.5)) continue;
    lp.cols.push_back({{i, 1.0}});
    lp.lower.push_back(rng.chance(0.5) ? 0.0 : -kInf);
    lp.upper.push_back(lp.lower.back() == 0.0 ? kInf : 0.0);
    lp.cost.push_back(0.0);
  }
  lp.numCols = static_cast<int>(lp.cols.size());
  return lp;
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  /// Values are compared with `==`, so both zeros hash alike.
  void add(double x) { add(std::bit_cast<std::uint64_t>(x == 0.0 ? 0.0 : x)); }
  void add(const LpResult& r) {
    add(static_cast<std::uint64_t>(r.status));
    add(static_cast<std::uint64_t>(r.iterations));
    add(static_cast<std::uint64_t>(r.factorStats.refactorizations));
    add(static_cast<std::uint64_t>(r.factorStats.etaUpdates));
    if (r.status != LpStatus::Optimal) return;
    add(r.objective);
    for (double x : r.x) add(x);
  }
};

// Recorded with the list-form eta file and the two-pass ratio test that
// scans every row, before either kernel was reworked.
constexpr std::uint64_t kPinnedDigest = 723275371245577620ULL;

TEST(SimplexDigest, SeededSolvesUnchanged) {
  Digest digest;
  long long iterations = 0, etaUpdates = 0;
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 0x2545f4914f6cdd1dULL + 17);
    LpProblem lp = digestLp(rng);
    // A cold solve, then a branch-and-bound-like descent: each step
    // tightens one bound of the last solution and warm-starts from its
    // basis, through the same solver (and so its retained factor).
    BoundedSimplex simplex;
    SimplexBasis basis;
    LpResult r = simplex.solve(lp, 0, nullptr, &basis);
    digest.add(r);
    iterations += r.iterations;
    etaUpdates += r.factorStats.etaUpdates;
    for (int depth = 0; depth < 8 && r.status == LpStatus::Optimal; ++depth) {
      const auto j = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(lp.numCols)));
      const double v = r.x[j];
      if (rng.chance(0.5)) lp.upper[j] = std::max(lp.lower[j], std::floor(v - 0.25));
      else lp.lower[j] = std::min(lp.upper[j], std::ceil(v + 0.25));
      SimplexBasis next;
      r = simplex.solve(lp, 0, &basis, &next);
      digest.add(r);
      iterations += r.iterations;
      etaUpdates += r.factorStats.etaUpdates;
      basis = next;
    }
  }
  // The seeds must reach the eta file and its refactorization trigger, or
  // the digest pins nothing about them.
  EXPECT_GT(iterations, 2000);
  EXPECT_GT(etaUpdates, 1000);
  EXPECT_EQ(digest.h, kPinnedDigest);
}

}  // namespace
}  // namespace hetpar::ilp
