// Differential test between two basis representations behind BoundedSimplex:
// the production sparse revised simplex (LU factors + product-form etas) and
// the dense explicit-inverse reference (verify/dense_factor.hpp). The engines
// share the simplex driver but nothing about the basis representation, so
// agreement on hundreds of random bounded-variable LPs — plus the real ILPPAR
// models from the verify generators, plus warm-started resolves along a
// simulated branch-and-bound bound-tightening path — is strong evidence
// neither factorization is wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hetpar/ilp/branch_and_bound.hpp"
#include "hetpar/ilp/simplex.hpp"
#include "hetpar/parallel/ilppar_model.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/verify/dense_factor.hpp"
#include "hetpar/verify/oracle.hpp"

namespace hetpar::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random LP directly in computational standard form: sparse equality rows
/// over columns with a mix of [0,u], [l,u] (l possibly negative), fixed,
/// one-sided, and free bounds. Deliberately wider than what buildLp emits so
/// the engines also disagree-or-not on shapes only property tests produce.
LpProblem randomLp(Rng& rng) {
  LpProblem lp;
  lp.numRows = static_cast<int>(rng.range(2, 10));
  lp.numCols = static_cast<int>(rng.range(lp.numRows + 1, lp.numRows + 12));
  lp.cols.resize(static_cast<std::size_t>(lp.numCols));
  for (int j = 0; j < lp.numCols; ++j) {
    for (int i = 0; i < lp.numRows; ++i) {
      if (!rng.chance(0.4)) continue;
      double coef = double(rng.range(1, 4));
      if (rng.chance(0.5)) coef = -coef;
      lp.cols[static_cast<std::size_t>(j)].emplace_back(i, coef);
    }
    const std::uint64_t shape = rng.range(0, 5);
    double lo = 0.0, hi = double(rng.range(1, 9));
    switch (shape) {
      case 0: break;                                   // [0, u]
      case 1: lo = -double(rng.range(1, 5)); break;    // [-l, u]
      case 2: lo = hi; break;                          // fixed
      case 3: hi = kInf; break;                        // [0, inf)
      case 4: lo = -kInf; hi = double(rng.range(0, 6)); break;  // (-inf, u]
      default: lo = -kInf; hi = kInf; break;           // free
    }
    lp.lower.push_back(lo);
    lp.upper.push_back(hi);
    lp.cost.push_back(double(rng.range(-6, 6)));
  }
  for (int i = 0; i < lp.numRows; ++i) lp.rhs.push_back(double(rng.range(-10, 10)));
  return lp;
}

void expectAgreement(const LpResult& dense, const LpResult& revised, const char* what) {
  ASSERT_EQ(dense.status, revised.status) << what;
  if (dense.status != LpStatus::Optimal) return;
  EXPECT_NEAR(dense.objective, revised.objective,
              1e-6 * (1.0 + std::abs(dense.objective)))
      << what;
}

class SolverDifferentialSweep : public ::testing::TestWithParam<int> {};

// 100 seeds x 5 LPs = 500 random LPs, every one solved by both engines.
TEST_P(SolverDifferentialSweep, RandomLpsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 3);
  for (int k = 0; k < 5; ++k) {
    const LpProblem lp = randomLp(rng);
    BoundedSimplex dense(1e-9, verify::makeDenseInverseFactor);
    BoundedSimplex revised;
    const LpResult d = dense.solve(lp);
    const LpResult r = revised.solve(lp);
    if (d.status == LpStatus::IterationLimit || r.status == LpStatus::IterationLimit)
      continue;  // no claim when either engine gave up
    expectAgreement(d, r,
                    ("seed " + std::to_string(GetParam()) + " lp " + std::to_string(k)).c_str());
  }
}

// Simulated branch-and-bound descent: repeatedly tighten one structural
// bound and warm-start each engine from ITS OWN previous basis. The engines
// may follow different pivot paths, but every node's optimum must match.
TEST_P(SolverDifferentialSweep, WarmResolvePathAgrees) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 41);
  LpProblem lp = randomLp(rng);
  // Finite bounds everywhere, so the root is bounded and tightening always
  // makes sense. Then feasible by construction: pick an integer point inside
  // the bounds and give each row the rhs that point satisfies.
  std::vector<double> point;
  for (int j = 0; j < lp.numCols; ++j) {
    const auto c = static_cast<std::size_t>(j);
    if (!std::isfinite(lp.lower[c])) lp.lower[c] = -double(rng.range(1, 6));
    if (!std::isfinite(lp.upper[c])) lp.upper[c] = lp.lower[c] + double(rng.range(1, 8));
    point.push_back(lp.lower[c] +
                    double(rng.range(0, static_cast<std::int64_t>(lp.upper[c] - lp.lower[c]))));
  }
  std::fill(lp.rhs.begin(), lp.rhs.end(), 0.0);
  for (int j = 0; j < lp.numCols; ++j)
    for (const auto& [row, coef] : lp.cols[static_cast<std::size_t>(j)])
      lp.rhs[static_cast<std::size_t>(row)] += coef * point[static_cast<std::size_t>(j)];

  BoundedSimplex dense(1e-9, verify::makeDenseInverseFactor);
  BoundedSimplex revised;
  SimplexBasis denseBasis, revisedBasis;
  const LpResult d0 = dense.solve(lp, 0, nullptr, &denseBasis);
  const LpResult r0 = revised.solve(lp, 0, nullptr, &revisedBasis);
  ASSERT_EQ(d0.status, LpStatus::Optimal);
  ASSERT_EQ(r0.status, LpStatus::Optimal);
  expectAgreement(d0, r0, "root");

  for (int depth = 0; depth < 6; ++depth) {
    const auto j = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(lp.numCols)));
    if (rng.chance(0.5)) {
      lp.upper[j] = std::floor((lp.lower[j] + lp.upper[j]) / 2.0);
      if (lp.upper[j] < lp.lower[j]) lp.upper[j] = lp.lower[j];
    } else {
      lp.lower[j] = std::ceil((lp.lower[j] + lp.upper[j]) / 2.0);
      if (lp.lower[j] > lp.upper[j]) lp.lower[j] = lp.upper[j];
    }
    SimplexBasis dNext, rNext;
    const LpResult d = dense.solve(lp, 0, &denseBasis, &dNext);
    const LpResult r = revised.solve(lp, 0, &revisedBasis, &rNext);
    if (d.status == LpStatus::IterationLimit || r.status == LpStatus::IterationLimit) break;
    expectAgreement(d, r, ("depth " + std::to_string(depth)).c_str());
    if (d.status != LpStatus::Optimal) break;
    denseBasis = dNext;
    revisedBasis = rNext;
  }
}

// The real thing: ILPPAR task-partitioning and loop-chunking models from the
// shared verify generators, solved end-to-end (branch and bound on top of
// each engine). Optimal objective values must match.
TEST_P(SolverDifferentialSweep, IlpParModelsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x2545f4914f6cdd1dULL + 7);
  verify::TinyRegionOptions tiny;
  tiny.maxChildren = 8;
  tiny.maxTasks = 4;

  BranchAndBoundSolver dense({}, verify::makeDenseInverseFactor);
  BranchAndBoundSolver revised;

  if (GetParam() % 2 == 0) {
    const parallel::IlpRegion region = verify::randomTinyRegion(rng, tiny);
    const parallel::IlpParResult d = parallel::solveIlpPar(region, dense);
    const parallel::IlpParResult r = parallel::solveIlpPar(region, revised);
    ASSERT_EQ(d.feasible, r.feasible);
    if (d.feasible && d.provenOptimal && r.provenOptimal) {
      EXPECT_NEAR(d.timeSeconds, r.timeSeconds, 1e-6 * (1.0 + d.timeSeconds));
    }
  } else {
    const parallel::ChunkRegion region = verify::randomTinyChunkRegion(rng, tiny);
    const parallel::ChunkResult d = parallel::solveChunkIlp(region, dense);
    const parallel::ChunkResult r = parallel::solveChunkIlp(region, revised);
    ASSERT_EQ(d.feasible, r.feasible);
    if (d.feasible && d.provenOptimal && r.provenOptimal) {
      EXPECT_NEAR(d.timeSeconds, r.timeSeconds, 1e-6 * (1.0 + d.timeSeconds));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialSweep, ::testing::Range(0, 100));

// The historical cross-problem cache hazard (see BoundedSimplex): two
// different matrices with EQUAL row counts, solved alternately through the
// same BoundedSimplex with warm bases exported from each other's solves.
// Before the cache was keyed on the matrix (now an exact comparison with the
// solver's copy), the second solve could adopt the first problem's retained
// basis inverse and silently corrupt the result.
TEST(SolverCacheHazard, EqualRowCountProblemsDoNotShareFactors) {
  // Problem A: x + y = 4, 0 <= x,y <= 4, minimize -x (optimum x=4, obj -4).
  LpProblem a;
  a.numRows = 1;
  a.numCols = 2;
  a.cols = {{{0, 1.0}}, {{0, 1.0}}};
  a.rhs = {4.0};
  a.cost = {-1.0, 0.0};
  a.lower = {0.0, 0.0};
  a.upper = {4.0, 4.0};

  // Problem B: same dimensions, DIFFERENT matrix: 2x + y = 6, minimize -y
  // (optimum y=6, x=0, obj -6).
  LpProblem b;
  b.numRows = 1;
  b.numCols = 2;
  b.cols = {{{0, 2.0}}, {{0, 1.0}}};
  b.rhs = {6.0};
  b.cost = {0.0, -1.0};
  b.lower = {0.0, 0.0};
  b.upper = {4.0, 6.0};

  ASSERT_NE(a.cols, b.cols);

  for (BasisFactorFactory makeFactor : {makeSparseLuFactor, verify::makeDenseInverseFactor}) {
    BoundedSimplex solver(1e-9, makeFactor);
    SimplexBasis basisA;
    const LpResult firstA = solver.solve(a, 0, nullptr, &basisA);
    ASSERT_EQ(firstA.status, LpStatus::Optimal);
    EXPECT_NEAR(firstA.objective, -4.0, 1e-9);

    // Feed problem B the basis from problem A: same row count, same basic
    // column indices are plausible, but the matrix differs. The solver must
    // refactorize from B's columns, not reuse A's cached factors.
    const LpResult firstB = solver.solve(b, 0, &basisA, nullptr);
    ASSERT_EQ(firstB.status, LpStatus::Optimal);
    EXPECT_NEAR(firstB.objective, -6.0, 1e-9);

    // And back again, exercising the cache in both directions.
    SimplexBasis basisB;
    const LpResult secondB = solver.solve(b, 0, nullptr, &basisB);
    ASSERT_EQ(secondB.status, LpStatus::Optimal);
    const LpResult secondA = solver.solve(a, 0, &basisB, nullptr);
    ASSERT_EQ(secondA.status, LpStatus::Optimal);
    EXPECT_NEAR(secondA.objective, -4.0, 1e-9);
  }
}

// Same-basis warm restart must hit the factor cache (no refactorization
// beyond the count a fresh factorization would cause) and still be exact.
TEST(SolverCacheHazard, SameProblemWarmRestartReusesFactors) {
  LpProblem lp;
  lp.numRows = 2;
  lp.numCols = 4;
  lp.cols = {{{0, 1.0}, {1, 1.0}}, {{0, 2.0}}, {{1, 1.0}}, {{0, 1.0}, {1, -1.0}}};
  lp.rhs = {5.0, 3.0};
  lp.cost = {-2.0, -1.0, 0.0, 1.0};
  lp.lower = {0.0, 0.0, 0.0, 0.0};
  lp.upper = {4.0, 4.0, 4.0, 4.0};

  BoundedSimplex solver;  // Revised by default
  SimplexBasis basis;
  const LpResult cold = solver.solve(lp, 0, nullptr, &basis);
  ASSERT_EQ(cold.status, LpStatus::Optimal);

  // Resolve the identical problem from the exported basis: already optimal,
  // so no pivots and — thanks to the cache — no refactorization either.
  const LpResult warm = solver.solve(lp, 0, &basis, nullptr);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(warm.factorStats.refactorizations, 0);
}

}  // namespace
}  // namespace hetpar::ilp
