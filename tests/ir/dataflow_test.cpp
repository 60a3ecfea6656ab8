#include "hetpar/ir/dataflow.hpp"

#include <gtest/gtest.h>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/ir/tripcount.hpp"
#include "hetpar/pipeline/digest.hpp"
#include "hetpar/verify/generator.hpp"

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

// ---------------------------------------------------------------------------
// Pinned results
// ---------------------------------------------------------------------------

/// Digest of every query result: liveAfter and upwardExposed of each
/// statement in forEachStmt order, constEnvAt of each `for`, and every
/// diagnostic with its kind, function, variable and location.
std::string dataflowDigest(const char* source) {
  Ctx c(source);
  pipeline::Digest d;
  const auto putSet = [&](const std::set<std::string>& names) {
    d.putU64(names.size());
    for (const auto& v : names) d.put(v);
  };
  for (const auto& fn : c.program.functions)
    for (const auto& top : fn->body)
      frontend::forEachStmt(*top, [&](frontend::Stmt& s) {
        putSet(c.dfa->liveAfter(s));
        putSet(c.dfa->upwardExposed(s));
        if (s.kind != frontend::StmtKind::For) return;
        const auto* env = c.dfa->constEnvAt(static_cast<const frontend::ForStmt&>(s));
        d.putBool(env != nullptr);
        if (env == nullptr) return;
        d.putU64(env->size());
        for (const auto& [v, k] : *env) {
          d.put(v);
          d.putI64(k);
        }
      });
  for (const FlowDiagnostic& f : c.dfa->diagnostics()) {
    d.putI64(static_cast<int>(f.kind));
    d.put(f.function);
    d.put(f.variable);
    d.putI64(f.loc.line);
    d.putI64(f.loc.column);
  }
  return d.hex();
}

// Control-flow shapes no suite kernel or generator program has: a mid-body
// return, a `for` with neither init nor step (sema refuses `for (;;)`, so
// its condition is the constant 1), a constant-false loop condition, a loop
// under a constant-false `if`, a call in a loop condition (one that
// overwrites all of `z`), a block that opens with a loop, a store that
// covers a one-element array and a local that shadows a global.
constexpr const char* kEdgeCases = R"(int g;
int a[8];
int c[1];
int z[4];
int bump() { g = g + 1; return g; }
int fillZ() {
  for (int q = 0; q < 4; q = q + 1) { z[q] = q; }
  return 0;
}
int main() {
  int n = 4;
  int x;
  int g = 2;
  for (; 1;) {
    if (a[0] > n) { return x; }
    x = n + g;
    a[1] = x;
  }
  for (int i = 0; 0; i = i + 1) { a[i] = n; }
  if (0) {
    for (int j = 0; j < n; j = j + 1) { a[j] = x; }
  }
  while (bump() < n) { a[2] = a[2] + 1; }
  while (fillZ() > n) { a[3] = z[0]; }
  {
    while (x > 9) { x = x - 1; }
    c[0] = x;
  }
  for (int k = 0; k < n; k = k + 1) {
    if (n == 4) { x = k; } else { x = 0; }
    a[k] = x;
  }
  return a[1] + g + z[1] + c[0];
})";

// The three clients' results on the ten suite kernels and the edge cases:
// a change to the solver must leave every set, environment and finding
// identical.
TEST(Dataflow, SuiteResultsArePinned) {
  const std::map<std::string, std::string> pinned = {
      {"adpcm_enc", "ef98dd78c877a0770b505fb390eeca49"},
      {"bound_value", "1ada3a129415ad05dcc227c55c36be0b"},
      {"compress", "8e890251e8ef752456c93f24c9f77f9a"},
      {"edge_detect", "42e96286ad43e07f91d6e5c5d6b6d749"},
      {"filterbank", "ec8ca14d13b2ebcd364a1df304b276fb"},
      {"fir_256", "90b3e5e119123a3bd4007c719a458b5d"},
      {"iir_4", "9c509d091bff05d9ee3b9bc4eac9faa7"},
      {"latnrm_32", "4a72691663d3b3e20cc77e202f0c5cf0"},
      {"mult_10", "afe6f675c3db83cd14a732f54e74f41f"},
      {"spectral", "8d5d9aaca5cd8f629372d48544fa975c"},
  };
  ASSERT_EQ(benchsuite::suite().size(), pinned.size());
  for (const benchsuite::Benchmark& b : benchsuite::suite()) {
    SCOPED_TRACE(b.name);
    EXPECT_EQ(dataflowDigest(b.source), pinned.at(b.name));
  }
  EXPECT_EQ(dataflowDigest(kEdgeCases), "ade954a6bd7af25c9dbfec9fe990d8ea");
}

// Generator programs add helper calls, array parameters and global writes
// through callees, which feed the call-effect paths of all three clients.
TEST(Dataflow, GeneratorResultsArePinned) {
  const std::vector<std::string> pinned = {
      "6bb9def430a90e04dfb80b6429860972",  // seed 0
      "291ee9f900ce678de0426841f4d90a0f",  // seed 1
      "7fb7c80764d0c8cb9c2a11ecc1269ce5",  // seed 2
      "ab9fcc472130df8da1a4b64bd682090f",  // seed 3
      "0df9350753105c1bd113838fea5c7e21",  // seed 4
      "95e9c4de2805f54e1046f6462aaa78d0",  // seed 5
      "d609c5c07ca1ca920ca1a0b07070b140",  // seed 6
      "e7e50fd461e30a0f255653e7f315f835",  // seed 7
      "46e675560d4799d5b064c36b0cc4ba2b",  // seed 8
      "76c4516f36c7b816002763e9b6feb278",  // seed 9
      "6327b8083039a4622539f266fa6146d0",  // seed 10
      "0c3aba2cecc4da4f226402888ef0a361",  // seed 11
      "faa8c1e3b023a66f2c75c73d23367d4d",  // seed 12
      "df0abc67252e8f7fd3e78bb7c221ac8d",  // seed 13
      "5c23fc930e63b710f615b1a0d73d903a",  // seed 14
      "6c9fdd0549503aeb446b0396a38a3031",  // seed 15
      "bc4853a76d1ea1aa81cebb1b76a4b658",  // seed 16
      "0c898f8523a580e30eab26e50ce90ea9",  // seed 17
      "86da1b37850f789d2110153fa300d573",  // seed 18
      "1b41737c98679cac1c4c81bed0f8d406",  // seed 19
      "b00b03a1d90236c782e91c90ee350061",  // seed 20
      "cf2a7ca6f6a479f0e6f7d808e07dc282",  // seed 21
      "c49bf29e81250c349e32cb301fe2f002",  // seed 22
      "9f08d10e0977d3c080debe3a80bc4436",  // seed 23
      "2a562e4fba82230c2cd15c96f776f296",  // seed 24
      "54be4d7c295f0219c999021485e9a8ab",  // seed 25
      "632ad41fd617cbd305c1a4258e05b755",  // seed 26
      "2818b7b9cdaaecead2b44db007175ee0",  // seed 27
      "6f6ed79ca6f5213be9953c18100a7771",  // seed 28
      "57dc14ecd8e1c58f9b43a2fbc2f759dd",  // seed 29
      "f37731b3b4ede909fdf55e51e44a6d2b",  // seed 30
      "d5a5344a5feb14f31e7e4550807aece1",  // seed 31
  };
  for (std::size_t seed = 0; seed < pinned.size(); ++seed) {
    SCOPED_TRACE(seed);
    const std::string source = verify::generateProgram(seed).render();
    EXPECT_EQ(dataflowDigest(source.c_str()), pinned[seed]);
  }
}

}  // namespace
}  // namespace hetpar::ir
