// Warm-start correctness: re-solving a perturbed problem from the previous
// basis must reach the same optimum a cold solve finds, across many random
// models and perturbations (the branch-and-bound usage pattern).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hetpar/ilp/simplex.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::ilp {
namespace {

/// Bounded (every variable in [0, u]) and feasible by construction: each
/// row's rhs is set so that a random point inside the bounds satisfies it.
Model randomModel(Rng& rng, int nv, int nc) {
  Model m("warm");
  std::vector<Var> xs;
  std::vector<double> point;
  for (int i = 0; i < nv; ++i) {
    const std::int64_t ub = rng.range(1, 10);
    xs.push_back(m.addContinuous(0, double(ub), strings::format("x%d", i)));
    point.push_back(double(rng.range(0, ub)));
  }
  for (int c = 0; c < nc; ++c) {
    LinearExpr lhs;
    double atPoint = 0.0;
    for (int i = 0; i < nv; ++i) {
      if (!rng.chance(0.5)) continue;
      const double coef = double(rng.range(1, 4));
      lhs += LinearExpr::term(coef, xs[size_t(i)]);
      atPoint += coef * point[size_t(i)];
    }
    if (rng.chance(0.5)) m.addLe(lhs, atPoint + double(rng.range(0, nv)));
    else m.addGe(lhs, atPoint - double(rng.range(0, nv)));
  }
  LinearExpr obj;
  for (int i = 0; i < nv; ++i)
    obj += LinearExpr::term(double(rng.range(-6, 6)), xs[size_t(i)]);
  m.setObjective(obj, rng.chance(0.5) ? Sense::Minimize : Sense::Maximize);
  return m;
}

class WarmStartSweep : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartSweep, WarmEqualsCold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  const int nv = int(rng.range(3, 12));
  const int nc = int(rng.range(2, 10));
  Model m = randomModel(rng, nv, nc);

  std::vector<double> lb, ub;
  for (const auto& v : m.vars()) {
    lb.push_back(v.lowerBound);
    ub.push_back(v.upperBound);
  }
  StandardForm sf = buildLp(m, lb, ub);
  BoundedSimplex solver;
  SimplexBasis basis;
  LpResult first = solver.solve(sf.problem, 0, nullptr, &basis);
  ASSERT_EQ(first.status, LpStatus::Optimal) << "seed " << GetParam();
  ASSERT_TRUE(basis.valid());

  // Branch-and-bound-style perturbations: tighten one structural bound.
  for (int round = 0; round < 4; ++round) {
    const int j = int(rng.below(static_cast<std::uint64_t>(nv)));
    LpProblem perturbed = sf.problem;
    if (rng.chance(0.5)) perturbed.upper[size_t(j)] = perturbed.upper[size_t(j)] / 2.0;
    else perturbed.lower[size_t(j)] =
        (perturbed.lower[size_t(j)] + perturbed.upper[size_t(j)]) / 2.0;

    BoundedSimplex coldSolver;
    const LpResult cold = coldSolver.solve(perturbed);
    const LpResult warm = solver.solve(perturbed, 0, &basis, nullptr);
    ASSERT_EQ(warm.status, cold.status) << "seed " << GetParam() << " round " << round;
    if (cold.status == LpStatus::Optimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-5 * (1.0 + std::abs(cold.objective)))
          << "seed " << GetParam() << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartSweep, ::testing::Range(0, 60));

TEST(WarmStart, DetectsInfeasibleChild) {
  // x + y >= 8 with x,y in [0,5]; child forces x <= 2, y <= 2 -> infeasible.
  Model m("inf");
  Var x = m.addContinuous(0, 5, "x");
  Var y = m.addContinuous(0, 5, "y");
  m.addGe(LinearExpr(x) + LinearExpr(y), 8.0);
  m.setObjective(LinearExpr(x), Sense::Minimize);
  std::vector<double> lb{0, 0}, ub{5, 5};
  StandardForm sf = buildLp(m, lb, ub);
  BoundedSimplex solver;
  SimplexBasis basis;
  ASSERT_EQ(solver.solve(sf.problem, 0, nullptr, &basis).status, LpStatus::Optimal);
  sf.problem.upper[0] = 2.0;
  sf.problem.upper[1] = 2.0;
  EXPECT_EQ(solver.solve(sf.problem, 0, &basis, nullptr).status, LpStatus::Infeasible);
}

TEST(WarmStart, MismatchedBasisFallsBackToCold) {
  Model m("fallback");
  Var x = m.addContinuous(0, 5, "x");
  m.addLe(LinearExpr(x), 4.0);
  m.setObjective(-LinearExpr(x), Sense::Minimize);
  std::vector<double> lb{0}, ub{5};
  StandardForm sf = buildLp(m, lb, ub);
  SimplexBasis bogus;
  bogus.basicCols = {0, 1, 2};  // wrong row count
  bogus.atUpper = {0};
  BoundedSimplex solver;
  const LpResult r = solver.solve(sf.problem, 0, &bogus, nullptr);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 4.0, 1e-7);
}

}  // namespace
}  // namespace hetpar::ilp
