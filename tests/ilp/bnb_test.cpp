#include "hetpar/ilp/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hetpar/support/strings.hpp"

namespace hetpar::ilp {
namespace {

TEST(BranchAndBound, PureLpPassesThrough) {
  Model m;
  Var x = m.addContinuous(0, 4, "x");
  Var y = m.addContinuous(0, 4, "y");
  m.addLe(LinearExpr(x) + LinearExpr(y), 5.0);
  m.setObjective(LinearExpr(x) + 2.0 * LinearExpr(y), Sense::Maximize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-6);  // x=1, y=4
  EXPECT_EQ(solver.lastStats().nodesExplored, 1);
}

TEST(BranchAndBound, SimpleIntegerRounding) {
  // max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5)
  Model m;
  Var x = m.addVar(VarType::Integer, 0, 100, "x");
  m.addLe(2.0 * LinearExpr(x), 7.0);
  m.setObjective(LinearExpr(x), Sense::Maximize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(s.integral(x), 3);
}

TEST(BranchAndBound, KnapsackKnownOptimum) {
  // Classic 0/1 knapsack: values {60,100,120}, weights {10,20,30}, cap 50 -> 220.
  Model m;
  std::vector<double> value{60, 100, 120};
  std::vector<double> weight{10, 20, 30};
  std::vector<Var> take;
  LinearExpr totalWeight, totalValue;
  for (int i = 0; i < 3; ++i) {
    take.push_back(m.addBool("take" + std::to_string(i)));
    totalWeight += LinearExpr::term(weight[size_t(i)], take.back());
    totalValue += LinearExpr::term(value[size_t(i)], take.back());
  }
  m.addLe(totalWeight, 50.0);
  m.setObjective(totalValue, Sense::Maximize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 220.0, 1e-6);
  EXPECT_EQ(s.integral(take[0]), 0);
  EXPECT_EQ(s.integral(take[1]), 1);
  EXPECT_EQ(s.integral(take[2]), 1);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 2x = 1 has no integer solution.
  Model m;
  Var x = m.addVar(VarType::Integer, 0, 10, "x");
  m.addEq(2.0 * LinearExpr(x), 1.0);
  m.setObjective(LinearExpr(x), Sense::Minimize);
  BranchAndBoundSolver solver;
  EXPECT_EQ(solver.solve(m).status, SolveStatus::Infeasible);
}

TEST(BranchAndBound, InfeasibleLpDetected) {
  Model m;
  Var x = m.addBool("x");
  m.addGe(LinearExpr(x), 2.0);
  m.setObjective(LinearExpr(x), Sense::Minimize);
  BranchAndBoundSolver solver;
  EXPECT_EQ(solver.solve(m).status, SolveStatus::Infeasible);
}

TEST(BranchAndBound, UnboundedDetected) {
  Model m;
  Var x = m.addContinuous(0, kInfinity, "x");
  m.setObjective(-LinearExpr(x), Sense::Minimize);
  BranchAndBoundSolver solver;
  EXPECT_EQ(solver.solve(m).status, SolveStatus::Unbounded);
}

TEST(BranchAndBound, EqualityWithBinariesExactCover) {
  // Choose exactly one of three options with different costs.
  Model m;
  Var a = m.addBool("a");
  Var b = m.addBool("b");
  Var c = m.addBool("c");
  m.addEq(LinearExpr(a) + LinearExpr(b) + LinearExpr(c), 1.0);
  m.setObjective(5.0 * LinearExpr(a) + 3.0 * LinearExpr(b) + 4.0 * LinearExpr(c),
                 Sense::Minimize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
  EXPECT_EQ(s.integral(b), 1);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // max 3x + 2y, x integer in [0,10], y continuous in [0, 4.5], x + y <= 6.2
  // -> x=6, y=0.2: 18.4
  Model m;
  Var x = m.addVar(VarType::Integer, 0, 10, "x");
  Var y = m.addContinuous(0, 4.5, "y");
  m.addLe(LinearExpr(x) + LinearExpr(y), 6.2);
  m.setObjective(3.0 * LinearExpr(x) + 2.0 * LinearExpr(y), Sense::Maximize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(s.integral(x), 6);
  EXPECT_NEAR(s.value(y), 0.2, 1e-6);
  EXPECT_NEAR(s.objective, 18.4, 1e-6);
}

TEST(BranchAndBound, AndVariablesResolveThroughSearch) {
  // maximize z = x AND y with a budget forbidding both -> optimum 0;
  // then relax the budget -> optimum 1.
  for (double budget : {1.0, 2.0}) {
    Model m;
    Var x = m.addBool("x");
    Var y = m.addBool("y");
    Var z = m.addAnd(x, y, "z");
    m.addLe(LinearExpr(x) + LinearExpr(y), budget);
    m.setObjective(LinearExpr(z), Sense::Maximize);
    BranchAndBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, budget >= 2.0 ? 1.0 : 0.0, 1e-6);
  }
}

TEST(BranchAndBound, BigMIndicatorPattern) {
  // The parallelizer's Eq 9 pattern: cost >= base - M*(1 - pred).
  // With pred forced to 1 by a dependence, cost must absorb the base.
  const double M = 1e5;
  Model m;
  Var pred = m.addBool("pred");
  Var cost = m.addContinuous(0, kInfinity, "cost");
  m.addGe(LinearExpr(pred), 1.0);  // dependence forces pred
  // Big-M row: cost >= 42 - M*(1 - pred)  ==>  cost - M*pred >= 42 - M.
  m.addGe(LinearExpr(cost) - M * LinearExpr(pred), 42.0 - M);
  m.setObjective(LinearExpr(cost), Sense::Minimize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 42.0, 1e-5);
}

TEST(BranchAndBound, NodeLimitYieldsFeasibleOrLimit) {
  // A 12-item knapsack with a tiny node budget: must not claim optimality.
  Model m;
  LinearExpr w, v;
  std::vector<Var> xs;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(m.addBool(strings::format("x%d", i)));
    w += LinearExpr::term(3 + (i * 7) % 11, xs.back());
    v += LinearExpr::term(5 + (i * 5) % 13, xs.back());
  }
  m.addLe(w, 31.0);
  m.setObjective(v, Sense::Maximize);
  SolveOptions opts;
  opts.maxNodes = 3;
  BranchAndBoundSolver solver(opts);
  Solution s = solver.solve(m);
  EXPECT_TRUE(s.status == SolveStatus::Feasible || s.status == SolveStatus::IterationLimit);
  EXPECT_TRUE(solver.lastStats().unproven);

  // Without the cap the same model is solved to proven optimality.
  BranchAndBoundSolver unlimited;
  EXPECT_EQ(unlimited.solve(m).status, SolveStatus::Optimal);
  EXPECT_FALSE(unlimited.lastStats().unproven);
}

TEST(BranchAndBound, StatsArePopulated) {
  Model m;
  Var x = m.addVar(VarType::Integer, 0, 9, "x");
  Var y = m.addVar(VarType::Integer, 0, 9, "y");
  m.addLe(3.0 * LinearExpr(x) + 5.0 * LinearExpr(y), 22.0);
  m.setObjective(2.0 * LinearExpr(x) + 3.0 * LinearExpr(y), Sense::Maximize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  const SolveStats& st = solver.lastStats();
  EXPECT_EQ(st.numVars, 2u);
  EXPECT_EQ(st.numConstraints, 1u);
  EXPECT_EQ(st.numIntegerVars, 2u);
  EXPECT_GE(st.nodesExplored, 1);
  EXPECT_GE(st.simplexIterations, 1);
}

TEST(BranchAndBound, SolutionSatisfiesModel) {
  Model m;
  std::vector<Var> xs;
  LinearExpr sum;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(m.addBool(strings::format("x%d", i)));
    sum += LinearExpr(xs.back());
  }
  m.addEq(sum, 4.0);
  LinearExpr obj;
  for (int i = 0; i < 8; ++i) obj += LinearExpr::term((i % 3) + 1, xs[size_t(i)]);
  m.setObjective(obj, Sense::Minimize);
  BranchAndBoundSolver solver;
  Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_TRUE(m.isFeasible(s.values));
  EXPECT_NEAR(s.objective, 1 + 1 + 1 + 2, 1e-6);  // three weight-1 items + one weight-2
}

}  // namespace
}  // namespace hetpar::ilp
