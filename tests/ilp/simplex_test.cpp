#include "hetpar/ilp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "hetpar/support/strings.hpp"
#include "hetpar/verify/dense_factor.hpp"

namespace hetpar::ilp {
namespace {

// Convenience: solve a Model's LP relaxation via buildLp + BoundedSimplex.
LpResult relaxWith(const Model& m, BasisFactorFactory makeFactor) {
  std::vector<double> lb, ub;
  for (const auto& v : m.vars()) {
    lb.push_back(v.lowerBound);
    ub.push_back(v.upperBound);
  }
  StandardForm sf = buildLp(m, lb, ub);
  BoundedSimplex simplex(1e-9, makeFactor);
  return simplex.solve(sf.problem);
}

LpResult relax(const Model& m) { return relaxWith(m, makeSparseLuFactor); }

TEST(Simplex, TextbookTwoVarMaximize) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 -> 36 at (2,6)
  Model m;
  Var x = m.addContinuous(0, kInfinity, "x");
  Var y = m.addContinuous(0, kInfinity, "y");
  m.addLe(LinearExpr(x), 4.0);
  m.addLe(2.0 * LinearExpr(y), 12.0);
  m.addLe(3.0 * LinearExpr(x) + 2.0 * LinearExpr(y), 18.0);
  m.setObjective(3.0 * LinearExpr(x) + 5.0 * LinearExpr(y), Sense::Maximize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -36.0, 1e-6);  // internal objective is minimized
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
  EXPECT_NEAR(r.x[1], 6.0, 1e-6);
}

TEST(Simplex, MinimizeWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 0 -> x=10-y... optimum x=10,y=0? cost 20
  Model m;
  Var x = m.addContinuous(2, kInfinity, "x");
  Var y = m.addContinuous(0, kInfinity, "y");
  m.addGe(LinearExpr(x) + LinearExpr(y), 10.0);
  m.setObjective(2.0 * LinearExpr(x) + 3.0 * LinearExpr(y), Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[0], 10.0, 1e-6);
  EXPECT_NEAR(r.x[1], 0.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + 2y = 6, 0<=x,y<=10 -> y=3, x=0 -> 3
  Model m;
  Var x = m.addContinuous(0, 10, "x");
  Var y = m.addContinuous(0, 10, "y");
  m.addEq(LinearExpr(x) + 2.0 * LinearExpr(y), 6.0);
  m.setObjective(LinearExpr(x) + LinearExpr(y), Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  Var x = m.addContinuous(0, 1, "x");
  m.addGe(LinearExpr(x), 2.0);
  m.setObjective(LinearExpr(x), Sense::Minimize);
  EXPECT_EQ(relax(m).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsInfeasibleSystem) {
  Model m;
  Var x = m.addContinuous(0, kInfinity, "x");
  Var y = m.addContinuous(0, kInfinity, "y");
  m.addEq(LinearExpr(x) + LinearExpr(y), 1.0);
  m.addEq(LinearExpr(x) + LinearExpr(y), 2.0);
  m.setObjective(LinearExpr(x), Sense::Minimize);
  EXPECT_EQ(relax(m).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  Var x = m.addContinuous(0, kInfinity, "x");
  Var y = m.addContinuous(0, kInfinity, "y");
  m.addGe(LinearExpr(x) - LinearExpr(y), 1.0);
  m.setObjective(-LinearExpr(x), Sense::Minimize);
  EXPECT_EQ(relax(m).status, LpStatus::Unbounded);
}

TEST(Simplex, BoundedVariablesHandledImplicitly) {
  // max x + y with 1 <= x <= 3, 2 <= y <= 5 and x + y <= 7 -> (3, 4) or (2, 5): 7
  Model m;
  Var x = m.addContinuous(1, 3, "x");
  Var y = m.addContinuous(2, 5, "y");
  m.addLe(LinearExpr(x) + LinearExpr(y), 7.0);
  m.setObjective(LinearExpr(x) + LinearExpr(y), Sense::Maximize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(-r.objective, 7.0, 1e-6);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with -5 <= x <= 5, -5 <= y <= 5, x + y >= -3 -> -3
  Model m;
  Var x = m.addContinuous(-5, 5, "x");
  Var y = m.addContinuous(-5, 5, "y");
  m.addGe(LinearExpr(x) + LinearExpr(y), -3.0);
  m.setObjective(LinearExpr(x) + LinearExpr(y), Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-6);
}

TEST(Simplex, FreeVariable) {
  // min y s.t. y >= x - 2, y >= -x, x free -> x=1, y=-1
  Model m;
  Var x = m.addContinuous(-kInfinity, kInfinity, "x");
  Var y = m.addContinuous(-kInfinity, kInfinity, "y");
  m.addGe(LinearExpr(y) - LinearExpr(x), -2.0);
  m.addGe(LinearExpr(y) + LinearExpr(x), 0.0);
  m.setObjective(LinearExpr(y), Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP; must not cycle.
  Model m;
  Var x1 = m.addContinuous(0, kInfinity, "x1");
  Var x2 = m.addContinuous(0, kInfinity, "x2");
  Var x3 = m.addContinuous(0, kInfinity, "x3");
  m.addLe(0.5 * LinearExpr(x1) - 5.5 * LinearExpr(x2) - 2.5 * LinearExpr(x3), 0.0);
  m.addLe(0.5 * LinearExpr(x1) - 1.5 * LinearExpr(x2) - 0.5 * LinearExpr(x3), 0.0);
  m.addLe(LinearExpr(x1), 1.0);
  m.setObjective(-10.0 * LinearExpr(x1) + 57.0 * LinearExpr(x2) + 9.0 * LinearExpr(x3),
                 Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  // Optimum: x1=1, x3=1, x2=0 -> -10 + 9 = -1.
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
}

TEST(Simplex, NoRowsPureBounds) {
  Model m;
  Var x = m.addContinuous(1, 4, "x");
  Var y = m.addContinuous(-2, 3, "y");
  m.setObjective(LinearExpr(x) - 2.0 * LinearExpr(y), Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 1.0 - 6.0, 1e-9);
}

TEST(Simplex, FixedVariables) {
  Model m;
  Var x = m.addContinuous(3, 3, "x");
  Var y = m.addContinuous(0, 10, "y");
  m.addEq(LinearExpr(x) + LinearExpr(y), 8.0);
  m.setObjective(LinearExpr(y), Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[1], 5.0, 1e-6);
}

TEST(Simplex, RedundantConstraintsAreHarmless) {
  Model m;
  Var x = m.addContinuous(0, 10, "x");
  for (int i = 0; i < 6; ++i) m.addLe(LinearExpr(x), 5.0);
  m.setObjective(-LinearExpr(x), Sense::Minimize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 5.0, 1e-6);
}

TEST(Simplex, ModeratelySizedDiagonalSystem) {
  // 60 rows: x_i + x_{i+1} <= 2 with objective max sum x_i.
  Model m;
  std::vector<Var> xs;
  for (int i = 0; i < 61; ++i) xs.push_back(m.addContinuous(0, 2, strings::format("x%d", i)));
  LinearExpr sum;
  for (auto v : xs) sum += LinearExpr(v);
  for (int i = 0; i < 60; ++i) m.addLe(LinearExpr(xs[i]) + LinearExpr(xs[i + 1]), 2.0);
  m.setObjective(sum, Sense::Maximize);
  LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  // Optimum alternates 2,0,2,... -> 31 * 2 = 62.
  EXPECT_NEAR(-r.objective, 62.0, 1e-5);
}

// ---------------------------------------------------------------------------
// Adversarial numeric corpus. Each case is a known LP pathology — cycling
// degeneracy, near-singular bases, extreme coefficient scales — with a known
// optimum, run through BOTH engines. The corpus pins down behaviors the
// random differential sweep only hits by luck.

struct AdversarialCase {
  const char* name;
  Model (*build)();
  double expectedObjective;  // internal (minimized) objective
  double tol;
};

// Beale's classic cycling example: the Dantzig rule cycles forever on this
// degenerate LP; termination requires the anti-cycling (Bland) fallback.
Model bealeCycling() {
  Model m;
  Var x1 = m.addContinuous(0, kInfinity, "x1");
  Var x2 = m.addContinuous(0, kInfinity, "x2");
  Var x3 = m.addContinuous(0, kInfinity, "x3");
  Var x4 = m.addContinuous(0, kInfinity, "x4");
  m.addLe(0.25 * LinearExpr(x1) - 60.0 * LinearExpr(x2) - 0.04 * LinearExpr(x3) +
              9.0 * LinearExpr(x4),
          0.0);
  m.addLe(0.5 * LinearExpr(x1) - 90.0 * LinearExpr(x2) - 0.02 * LinearExpr(x3) +
              3.0 * LinearExpr(x4),
          0.0);
  m.addLe(LinearExpr(x3), 1.0);
  m.setObjective(-0.75 * LinearExpr(x1) + 150.0 * LinearExpr(x2) -
                     0.02 * LinearExpr(x3) + 6.0 * LinearExpr(x4),
                 Sense::Minimize);
  return m;  // optimum -0.05 at (0.04, 0, 1, 0)
}

// Two rows that differ by 1e-5 in one coefficient: a basis containing both
// rows has condition number ~1e5, stressing the pivot tolerance (dense) and
// the Markowitz threshold + singularity guard (LU). The perturbation sits
// above the 1e-7 feasibility tolerance on purpose — anything smaller and
// the solver is entitled to treat the rows as one constraint.
Model nearSingularRows() {
  Model m;
  Var x = m.addContinuous(-5, 5, "x");
  Var y = m.addContinuous(-5, 5, "y");
  m.addEq(LinearExpr(x) + LinearExpr(y), 1.0);
  m.addEq(LinearExpr(x) + (1.0 + 1e-5) * LinearExpr(y), 1.0 + 2e-5);
  m.setObjective(LinearExpr(x), Sense::Minimize);
  return m;  // unique solution x=-1, y=2
}

// Cost/rhs magnitudes at 1e+8: absolute tolerances tuned for O(1) data must
// not misclassify feasibility or optimality.
Model largeScale() {
  Model m;
  Var x = m.addContinuous(0, 1e8, "x");
  Var y = m.addContinuous(0, 1e8, "y");
  m.addEq(LinearExpr(x) + LinearExpr(y), 1e8);
  m.setObjective(1e-8 * LinearExpr(x) + 2e-8 * LinearExpr(y), Sense::Minimize);
  return m;  // x takes everything: objective 1.0
}

// Matrix coefficient at 1e+8 against O(1) rows: the ratio test and the
// factor update both see pivots eight orders of magnitude apart.
Model mixedScale() {
  Model m;
  Var x = m.addContinuous(0, 10, "x");
  Var y = m.addContinuous(0, 1, "y");
  m.addEq(1e8 * LinearExpr(x) + LinearExpr(y), 1e8);
  m.setObjective(LinearExpr(x), Sense::Minimize);
  return m;  // y=1, x=(1e8-1)/1e8: objective 1 - 1e-8
}

// 3x3 assignment polytope written with ALL six (redundant, rank-5) equality
// rows: every basis carries a zero-level artificial, every vertex is
// degenerate. Exercises rank-deficient phase 1 and degenerate pivoting.
Model degenerateAssignment() {
  Model m;
  const double cost[3][3] = {{1, 2, 3}, {2, 1, 3}, {3, 2, 1}};
  Var x[3][3];
  LinearExpr obj;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      x[i][j] = m.addContinuous(0, 1, strings::format("x%d%d", i, j));
      obj += cost[i][j] * LinearExpr(x[i][j]);
    }
  for (int i = 0; i < 3; ++i) {
    LinearExpr row, col;
    for (int j = 0; j < 3; ++j) {
      row += LinearExpr(x[i][j]);
      col += LinearExpr(x[j][i]);
    }
    m.addEq(row, 1.0);
    m.addEq(col, 1.0);
  }
  m.setObjective(obj, Sense::Minimize);
  return m;  // diagonal assignment: objective 3
}

void expectBothEnginesReach(const AdversarialCase& c) {
  const Model m = c.build();
  for (const bool dense : {false, true}) {
    const LpResult r = relaxWith(m, dense ? verify::makeDenseInverseFactor : makeSparseLuFactor);
    ASSERT_EQ(r.status, LpStatus::Optimal) << c.name << (dense ? " (dense)" : " (revised)");
    EXPECT_NEAR(r.objective, c.expectedObjective, c.tol)
        << c.name << (dense ? " (dense)" : " (revised)");
    if (!dense) {
      // Every cold revised solve factorizes at least once and reports it.
      EXPECT_GE(r.factorStats.refactorizations, 1) << c.name;
    }
  }
}

// Each sweep is parameterized by index into its table so the printed
// parameter (and with it the test name) does not hold raw pointer bytes,
// which change with the load address from run to run.
std::string caseName(const AdversarialCase& c) {
  std::string n = c.name;
  for (char& ch : n)
    if (ch == '-') ch = '_';
  return n;
}

const AdversarialCase kAdversarialCases[] = {
    {"beale-cycling", &bealeCycling, -0.05, 1e-9},
    {"near-singular-rows", &nearSingularRows, -1.0, 1e-5},
    {"degenerate-assignment", &degenerateAssignment, 3.0, 1e-6},
};

class AdversarialSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialSweep, BothEnginesReachKnownOptimum) {
  expectBothEnginesReach(kAdversarialCases[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(Corpus, AdversarialSweep, ::testing::Range(0, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return caseName(kAdversarialCases[info.param]);
                         });

// The badly scaled cases.
const AdversarialCase kScaleCases[] = {
    {"large-scale", &largeScale, 1.0, 1e-4},
    {"mixed-scale", &mixedScale, 1.0 - 1e-8, 1e-6},
};

class ScaleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScaleSweep, BothEnginesReachKnownOptimum) {
  expectBothEnginesReach(kScaleCases[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ScaleSweep, ::testing::Range(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return caseName(kScaleCases[info.param]);
                         });

// An 80-row chained system needs well over 80 pivots; the product-form eta
// file must overflow its cap (clamp(m, 32, 160)) mid-solve and trigger at
// least one refactorization beyond the initial factorize.
TEST(SimplexAdversarial, EtaCapTriggersRefactorization) {
  Model m;
  std::vector<Var> xs;
  for (int i = 0; i < 81; ++i) xs.push_back(m.addContinuous(0, 2, strings::format("x%d", i)));
  LinearExpr sum;
  for (auto v : xs) sum += LinearExpr(v);
  for (int i = 0; i < 80; ++i) m.addLe(LinearExpr(xs[i]) + LinearExpr(xs[i + 1]), 2.0);
  m.setObjective(sum, Sense::Maximize);
  const LpResult r = relax(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(-r.objective, 82.0, 1e-5);
  EXPECT_GE(r.iterations, 81);
  EXPECT_GE(r.factorStats.refactorizations, 2)
      << "eta-length trigger never fired over " << r.iterations << " iterations";
  EXPECT_GE(r.factorStats.etaUpdates, 1);
  EXPECT_GE(r.factorStats.peakEtaLength, 1);
  EXPECT_GT(r.factorStats.peakFillNonzeros, 0);
}

}  // namespace
}  // namespace hetpar::ilp
