// Property tests: the branch-and-bound solver must agree with exhaustive
// enumeration on randomly generated small binary programs, across many seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "hetpar/ilp/branch_and_bound.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::ilp {
namespace {

struct RandomBip {
  Model model;
  std::vector<Var> vars;
};

/// Builds a random pure-binary program with `nv` variables and `nc`
/// constraints whose coefficients mimic the parallelizer's models
/// (small integers, mixed relations).
RandomBip makeRandom(Rng& rng, int nv, int nc) {
  RandomBip out;
  out.model = Model("random_bip");
  for (int i = 0; i < nv; ++i) out.vars.push_back(out.model.addBool(strings::format("b%d", i)));
  for (int c = 0; c < nc; ++c) {
    LinearExpr lhs;
    for (int i = 0; i < nv; ++i) {
      if (rng.chance(0.6)) lhs += LinearExpr::term(double(rng.range(-3, 3)), out.vars[size_t(i)]);
    }
    const double rhs = double(rng.range(-2, nv));
    switch (rng.below(3)) {
      case 0: out.model.addLe(lhs, rhs); break;
      case 1: out.model.addGe(lhs, rhs - nv); break;
      default: {
        // Equalities are kept loose enough to stay frequently feasible.
        out.model.addLe(lhs, rhs);
        out.model.addGe(lhs, rhs - 2.0);
        break;
      }
    }
  }
  LinearExpr obj;
  for (int i = 0; i < nv; ++i)
    obj += LinearExpr::term(double(rng.range(-5, 5)), out.vars[size_t(i)]);
  out.model.setObjective(obj, rng.chance(0.5) ? Sense::Minimize : Sense::Maximize);
  return out;
}

/// Exhaustive optimum over all 2^nv assignments; nullopt if infeasible.
std::optional<double> bruteForce(const Model& m, int nv) {
  std::optional<double> best;
  std::vector<double> x(static_cast<size_t>(nv), 0.0);
  for (unsigned mask = 0; mask < (1u << nv); ++mask) {
    for (int i = 0; i < nv; ++i) x[size_t(i)] = (mask >> i) & 1u ? 1.0 : 0.0;
    if (!m.isFeasible(x)) continue;
    const double obj = m.evalObjective(x);
    if (!best) {
      best = obj;
    } else if (m.sense() == Sense::Minimize) {
      best = std::min(*best, obj);
    } else {
      best = std::max(*best, obj);
    }
  }
  return best;
}

class RandomBipSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomBipSweep, MatchesBruteForce) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const int nv = int(rng.range(2, 10));
  const int nc = int(rng.range(1, 8));
  RandomBip bip = makeRandom(rng, nv, nc);

  BranchAndBoundSolver solver;
  Solution s = solver.solve(bip.model);
  std::optional<double> expected = bruteForce(bip.model, nv);

  if (!expected) {
    EXPECT_EQ(s.status, SolveStatus::Infeasible) << "seed " << seed;
  } else {
    ASSERT_EQ(s.status, SolveStatus::Optimal)
        << "seed " << seed << " expected obj " << *expected;
    EXPECT_NEAR(s.objective, *expected, 1e-6) << "seed " << seed;
    EXPECT_TRUE(bip.model.isFeasible(s.values)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBipSweep, ::testing::Range(0, 120));

class RandomMixedSweep : public ::testing::TestWithParam<int> {};

// Mixed binary/continuous: check returned solutions are feasible and the
// binary part agrees with an exhaustive scan over the binaries where, for
// each binary assignment, the continuous tail is optimized by the LP itself
// (we reuse the solver with binaries fixed).
TEST_P(RandomMixedSweep, BinaryFixingConsistency) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  const int nb = int(rng.range(2, 6));

  Model m("mixed");
  std::vector<Var> bs;
  for (int i = 0; i < nb; ++i) bs.push_back(m.addBool(strings::format("b%d", i)));
  Var y = m.addContinuous(0, 10, "y");

  LinearExpr sumB;
  for (auto b : bs) sumB += LinearExpr(b);
  m.addLe(sumB + LinearExpr(y), double(nb));
  m.addGe(2.0 * LinearExpr(y) - sumB, -1.0);
  LinearExpr obj = LinearExpr::term(-1.5, y);
  for (int i = 0; i < nb; ++i)
    obj += LinearExpr::term(double(rng.range(-4, 4)), bs[size_t(i)]);
  m.setObjective(obj, Sense::Minimize);

  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal) << "seed " << seed;
  EXPECT_TRUE(m.isFeasible(s.values));

  // Exhaustive over binaries: fix them via bounds and re-solve the LP.
  double bestObj = kInfinity;
  for (unsigned mask = 0; mask < (1u << nb); ++mask) {
    Model fixed = m;
    for (int i = 0; i < nb; ++i) {
      const double v = (mask >> i) & 1u ? 1.0 : 0.0;
      fixed.varInfo(bs[size_t(i)]).lowerBound = v;
      fixed.varInfo(bs[size_t(i)]).upperBound = v;
    }
    BranchAndBoundSolver sub;
    Solution fs = sub.solve(fixed);
    if (fs.status == SolveStatus::Optimal) bestObj = std::min(bestObj, fs.objective);
  }
  EXPECT_NEAR(s.objective, bestObj, 1e-6) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMixedSweep, ::testing::Range(0, 40));

}  // namespace
}  // namespace hetpar::ilp
