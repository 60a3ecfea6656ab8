// Sparse LU sweep: factorize random sparse nonsingular bases and hold the
// FTRAN/BTRAN results of the production factor to the dense reference
// inverse, before and after a run of eta updates. The sizes straddle the
// 64-bit word edges of the Markowitz search's column-count buckets, and
// most columns share a handful of counts, so ties are broken on every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "hetpar/ilp/basis_factor.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/verify/dense_factor.hpp"

namespace hetpar::ilp {
namespace {

using Column = std::vector<std::pair<int, double>>;

/// m basis columns on a random row permutation. Column s carries a
/// diagonal entry of magnitude 4..8 on row perm[s] and at most three other
/// entries of magnitude at most 1, so B is column diagonally dominant and
/// therefore nonsingular. Unit columns (slack-like) are mixed in.
std::vector<Column> randomBasisColumns(Rng& rng, int m) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = m - 1; i > 0; --i)
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i) + 1))]);
  std::vector<Column> cols(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    Column& col = cols[static_cast<std::size_t>(s)];
    const int diagRow = perm[static_cast<std::size_t>(s)];
    if (rng.chance(0.3)) {
      col.emplace_back(diagRow, rng.chance(0.5) ? 1.0 : -1.0);
      continue;
    }
    const double diag = double(rng.range(4, 8)) * (rng.chance(0.5) ? 1.0 : -1.0);
    col.emplace_back(diagRow, diag);
    const int extras = static_cast<int>(rng.range(0, 3));
    for (int e = 0; e < extras; ++e) {
      const int row = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
      if (std::any_of(col.begin(), col.end(), [row](const auto& p) { return p.first == row; }))
        continue;
      col.emplace_back(row, (double(rng.range(1, 8)) / 8.0) * (rng.chance(0.5) ? 1.0 : -1.0));
    }
  }
  return cols;
}

std::vector<double> randomVector(Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m), 0.0);
  for (double& x : v)
    if (rng.chance(0.5)) x = double(rng.range(-9, 9));
  return v;
}

/// Largest |a - b| scaled by the larger magnitude (plus one).
double maxRelativeGap(const std::vector<double>& a, const std::vector<double>& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    gap = std::max(gap, std::fabs(a[i] - b[i]) /
                            (1.0 + std::max(std::fabs(a[i]), std::fabs(b[i]))));
  return gap;
}

void expectSameSolves(const BasisFactor& lu, const BasisFactor& dense, Rng& rng, int m,
                      const char* when) {
  for (int k = 0; k < 4; ++k) {
    const std::vector<double> b = randomVector(rng, m);
    std::vector<double> x = b, xRef = b;
    lu.ftran(x);
    dense.ftran(xRef);
    EXPECT_LT(maxRelativeGap(x, xRef), 1e-9) << "ftran " << when << ", m " << m;
    std::vector<double> y = b, yRef = b;
    lu.btran(y);
    dense.btran(yRef);
    EXPECT_LT(maxRelativeGap(y, yRef), 1e-9) << "btran " << when << ", m " << m;
  }
}

class LuSweep : public ::testing::TestWithParam<int> {};

TEST_P(LuSweep, SolvesMatchDenseInverse) {
  const int m = GetParam();
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(static_cast<std::uint64_t>(m) * 1000003ULL + static_cast<std::uint64_t>(trial));
    std::vector<Column> cols = randomBasisColumns(rng, m);
    // Basis slots hold the columns in a shuffled order, as after pivoting.
    std::vector<int> basic(static_cast<std::size_t>(m));
    std::iota(basic.begin(), basic.end(), 0);
    for (int i = m - 1; i > 0; --i)
      std::swap(basic[static_cast<std::size_t>(i)],
                basic[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i) + 1))]);

    const auto lu = makeSparseLuFactor();
    const auto dense = verify::makeDenseInverseFactor();
    ASSERT_TRUE(lu->factorize(cols, basic, m)) << "m " << m << " trial " << trial;
    ASSERT_TRUE(dense->factorize(cols, basic, m));
    expectSameSolves(*lu, *dense, rng, m, "after factorize");

    // A run of eta updates: a random sparse column enters at the slot with
    // the largest FTRAN entry (always a safe pivot for both engines).
    std::vector<double> w(static_cast<std::size_t>(m));
    for (int pivot = 0; pivot < 12; ++pivot) {
      Column entering;
      for (int e = 0; e < 3; ++e) {
        const int row = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
        if (std::none_of(entering.begin(), entering.end(),
                         [row](const auto& p) { return p.first == row; }))
          entering.emplace_back(row, double(rng.range(1, 5)));
      }
      lu->ftranColumn(entering, w);
      const auto r = static_cast<int>(
          std::max_element(w.begin(), w.end(),
                           [](double a, double b) { return std::fabs(a) < std::fabs(b); }) -
          w.begin());
      ASSERT_TRUE(lu->update(r, w));
      dense->ftranColumn(entering, w);
      ASSERT_TRUE(dense->update(r, w));
      cols.push_back(entering);
      basic[static_cast<std::size_t>(r)] = static_cast<int>(cols.size()) - 1;
    }
    EXPECT_EQ(lu->stats().etaUpdates, 12);
    expectSameSolves(*lu, *dense, rng, m, "after 12 updates");

    // A copy carries the factor and its etas, whatever the target held
    // before; refactorizing the updated basis gives the same solves again.
    const auto copy = makeSparseLuFactor();
    ASSERT_TRUE(copy->factorize(cols, basic, m));
    copy->assign(*lu);
    expectSameSolves(*copy, *dense, rng, m, "on a copy");
    ASSERT_TRUE(lu->factorize(cols, basic, m));
    expectSameSolves(*lu, *dense, rng, m, "after refactorize");
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSweep, ::testing::Values(63, 64, 65, 128, 129, 300));

}  // namespace
}  // namespace hetpar::ilp
