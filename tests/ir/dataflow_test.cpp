#include "hetpar/ir/dataflow.hpp"

#include <gtest/gtest.h>

#include "hetpar/frontend/parser.hpp"
#include "hetpar/ir/tripcount.hpp"

namespace hetpar::ir {
namespace {

using frontend::analyze;
using frontend::parseProgram;

struct Ctx {
  frontend::Program program;
  frontend::SemaResult sema;
  std::unique_ptr<DefUseAnalysis> du;
  std::unique_ptr<DataflowAnalysis> dfa;

  explicit Ctx(const char* src) : program(parseProgram(src)), sema(analyze(program)) {
    du = std::make_unique<DefUseAnalysis>(program, sema);
    dfa = std::make_unique<DataflowAnalysis>(program, sema, *du);
  }
  const frontend::Stmt& mainStmt(std::size_t i) const {
    return *program.findFunction("main")->body[i];
  }
  const frontend::ForStmt& mainLoop(std::size_t i) const {
    const frontend::Stmt& s = mainStmt(i);
    EXPECT_EQ(s.kind, frontend::StmtKind::For);
    return static_cast<const frontend::ForStmt&>(s);
  }
  std::vector<FlowDiagnostic> findings(FlowDiagnostic::Kind kind,
                                       const std::string& variable) const {
    std::vector<FlowDiagnostic> out;
    for (const FlowDiagnostic& d : dfa->diagnostics())
      if (d.kind == kind && d.variable == variable) out.push_back(d);
    return out;
  }
};

/// RAII for the deliberate-fault knob so a failing test cannot leak it.
struct KnobGuard {
  KnobGuard() { DataflowAnalysis::testTreatPartialArrayWritesAsKills() = true; }
  ~KnobGuard() { DataflowAnalysis::testTreatPartialArrayWritesAsKills() = false; }
};

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

TEST(DataflowLiveness, NestedLoopsReachFixpoint) {
  // `s` is accumulated in the inner loop and fed back through `a[i]`: both
  // must stay live across every iteration boundary, which only a converged
  // loop fixpoint discovers.
  Ctx c(R"(int a[8]; int main() {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) {
      for (int j = 0; j < 8; j = j + 1) { s = s + a[j]; }
      a[i] = s;
    }
    return s;
  })");
  const std::set<std::string>& afterDecl = c.dfa->liveAfter(c.mainStmt(0));
  EXPECT_TRUE(afterDecl.count("s")) << "read by the inner loop";
  EXPECT_TRUE(afterDecl.count("a")) << "read by the inner loop";
  const std::set<std::string>& afterLoop = c.dfa->liveAfter(c.mainStmt(1));
  EXPECT_TRUE(afterLoop.count("s")) << "read by the return";
  const std::set<std::string>& exposed = c.dfa->upwardExposed(c.mainStmt(1));
  EXPECT_TRUE(exposed.count("s")) << "inner loop reads s before the first overwrite";
  EXPECT_TRUE(exposed.count("a")) << "a[j] is read before a[i] is rewritten";
}

TEST(DataflowLiveness, IfElseJoinUnionsBranches) {
  Ctx c(R"(int g[8]; int main() {
    int x = 1;
    int y = 2;
    if (g[0] > 0) { g[1] = x; } else { g[2] = 3; }
    y = 5;
    g[3] = y;
    return g[3];
  })");
  const std::set<std::string>& afterY = c.dfa->liveAfter(c.mainStmt(1));
  EXPECT_TRUE(afterY.count("x")) << "read in the then-branch only: join keeps it";
  EXPECT_FALSE(afterY.count("y")) << "overwritten before any read";
  const std::set<std::string>& afterIf = c.dfa->liveAfter(c.mainStmt(2));
  EXPECT_FALSE(afterIf.count("x")) << "never read again after the if";
}

TEST(DataflowLiveness, CoveringWriteKillsPartialWriteDoesNot) {
  Ctx c(R"(int a[8]; int b[8]; int main() {
    a[0] = 7;
    for (int i = 0; i < 8; i = i + 1) { a[i] = 1; }
    b[0] = 7;
    b[1] = 8;
    return a[3] + b[3];
  })");
  EXPECT_FALSE(c.dfa->liveAfter(c.mainStmt(0)).count("a"))
      << "the must-cover sweep overwrites every element of a";
  EXPECT_TRUE(c.dfa->liveAfter(c.mainStmt(1)).count("a")) << "read by the return";
  EXPECT_TRUE(c.dfa->liveAfter(c.mainStmt(2)).count("b"))
      << "b[1] = 8 is a partial write: b[0] survives it";
}

TEST(DataflowLiveness, FaultInjectionKnobIsObservablyUnsound) {
  const char* src = R"(int b[8]; int main() {
    b[0] = 7;
    b[1] = 8;
    return b[0];
  })";
  {
    Ctx sound(src);
    EXPECT_TRUE(sound.dfa->liveAfter(sound.mainStmt(0)).count("b"));
  }
  {
    KnobGuard knob;
    Ctx buggy(src);
    EXPECT_FALSE(buggy.dfa->liveAfter(buggy.mainStmt(0)).count("b"))
        << "the deliberate fault must actually change the analysis, or the "
           "liveness-soundness falsifiability check proves nothing";
  }
}

// ---------------------------------------------------------------------------
// Reaching definitions / lint diagnostics
// ---------------------------------------------------------------------------

TEST(DataflowDiagnostics, CallEffectsKeepGlobalStoresAlive) {
  // helperRead reads gs through a call: the first store is NOT dead. The
  // second store is never observed before main returns, so it is.
  Ctx c(R"(int gs;
    int helperRead() { return gs; }
    int main() {
      gs = 1;
      int x = helperRead();
      gs = 2;
      return x;
    })");
  const auto dead = c.findings(FlowDiagnostic::Kind::DeadStore, "gs");
  ASSERT_EQ(dead.size(), 1u) << "exactly the final store is dead";
  EXPECT_EQ(dead[0].loc.line, c.mainStmt(2).loc.line);
  EXPECT_EQ(dead[0].function, "main");
}

TEST(DataflowDiagnostics, NonMainFunctionsKeepFinalGlobalStores) {
  // A non-main function's global writes outlive it (main may read them), so
  // its final store is not dead — unlike main's.
  Ctx c(R"(int gs;
    void setup() { gs = 3; }
    int main() {
      setup();
      return gs;
    })");
  EXPECT_TRUE(c.findings(FlowDiagnostic::Kind::DeadStore, "gs").empty());
}

TEST(DataflowDiagnostics, UninitializedReadThroughJoin) {
  Ctx c(R"(int g[8]; int main() {
    int x;
    if (g[0] > 0) { x = 1; }
    int y = x + 1;
    g[1] = y;
    return g[1];
  })");
  const auto uninit = c.findings(FlowDiagnostic::Kind::UninitializedRead, "x");
  ASSERT_EQ(uninit.size(), 1u) << "only one branch initializes x";
  EXPECT_EQ(uninit[0].loc.line, c.mainStmt(2).loc.line);
}

TEST(DataflowDiagnostics, WriteOnlyTemporaryIsReported) {
  Ctx c(R"(int g[8]; int main() {
    int z = 0;
    for (int i = 0; i < 8; i = i + 1) { z = g[i]; }
    return g[0];
  })");
  const auto wo = c.findings(FlowDiagnostic::Kind::WriteOnly, "z");
  ASSERT_EQ(wo.size(), 1u);
  EXPECT_EQ(wo[0].function, "main");
}

TEST(DataflowDiagnostics, CleanProgramHasNoFindings) {
  Ctx c(R"(int a[8]; int main() {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) { a[i] = i; s = s + a[i]; }
    return s;
  })");
  EXPECT_TRUE(c.dfa->diagnostics().empty());
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

TEST(DataflowConstProp, LatticeTopConstAndBottom) {
  Ctx c(R"(int a[16]; int main() {
    int n = 4;
    int m = n + 2;
    int u = a[0];
    int t = 0;
    if (a[1] > 0) { t = 1; } else { t = 2; }
    for (int i = 0; i < m; i = i + 1) { a[i] = t + u; }
    return a[0];
  })");
  const auto* env = c.dfa->constEnvAt(c.mainLoop(5));
  ASSERT_NE(env, nullptr);
  ASSERT_TRUE(env->count("n"));
  EXPECT_EQ(env->at("n"), 4);
  ASSERT_TRUE(env->count("m")) << "constants propagate through arithmetic";
  EXPECT_EQ(env->at("m"), 6);
  EXPECT_FALSE(env->count("u")) << "array loads are unknown (top)";
  EXPECT_FALSE(env->count("t")) << "branch join of 1 and 2 is not-a-constant";
  EXPECT_EQ(staticTripCount(c.mainLoop(5), env), std::optional<long long>(6))
      << "the folded bound sharpens the trip count";
  EXPECT_EQ(staticTripCount(c.mainLoop(5)), std::nullopt)
      << "without the environment the symbolic bound stays unknown";
}

TEST(DataflowConstProp, FoldsConstantConditions) {
  Ctx c(R"(int a[16]; int main() {
    int n = 2;
    if (n < 3) { n = 8; } else { n = 1; }
    for (int i = 0; i < n; i = i + 1) { a[i] = 1; }
    return a[0];
  })");
  const auto* env = c.dfa->constEnvAt(c.mainLoop(2));
  ASSERT_NE(env, nullptr);
  ASSERT_TRUE(env->count("n")) << "the condition is constant: only one branch runs";
  EXPECT_EQ(env->at("n"), 8);
}

TEST(DataflowConstProp, LoopVariantValuesAreDropped) {
  Ctx c(R"(int a[16]; int main() {
    int k = 3;
    for (int i = 0; i < 4; i = i + 1) { k = k + 1; }
    for (int i = 0; i < 8; i = i + 1) { a[i] = k; }
    return a[0];
  })");
  const auto* env1 = c.dfa->constEnvAt(c.mainLoop(1));
  if (env1 != nullptr) {
    EXPECT_TRUE(env1->count("k")) << "k is still 3 at the first loop's head";
  }
  const auto* env2 = c.dfa->constEnvAt(c.mainLoop(2));
  if (env2 != nullptr) {
    EXPECT_FALSE(env2->count("k")) << "the first loop made k unknown";
  }
}

TEST(DataflowConstProp, SharpensInternalSections) {
  // The internal section analysis must see the folded bound: a loop over
  // [0, m) with constant m is a must-cover write of a[0..5].
  Ctx c(R"(int a[6]; int main() {
    int m = 6;
    for (int i = 0; i < m; i = i + 1) { a[i] = 1; }
    return a[0];
  })");
  const AccessSummary& s = c.dfa->sections().of(c.mainStmt(1));
  ASSERT_TRUE(s.writes.count("a"));
  const ArraySection& hull = s.writes.at("a").hull;
  ASSERT_FALSE(hull.whole) << "constprop folds the bound so the hull is exact";
  ASSERT_EQ(hull.dims.size(), 1u);
  EXPECT_EQ(hull.dims[0].lo, 0);
  EXPECT_EQ(hull.dims[0].hi, 5);
  EXPECT_TRUE(s.writes.at("a").mustCover());
}

}  // namespace
}  // namespace hetpar::ir
