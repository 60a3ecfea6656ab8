#include "hetpar/cost/interp.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/pipeline/digest.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/verify/generator.hpp"

namespace hetpar::cost {
namespace {

using frontend::analyze;
using frontend::parseProgram;
using frontend::Program;
using frontend::SemaResult;

struct RunResult {
  Program program;
  SemaResult sema;
  ProgramProfile profile;
};

RunResult run(const char* src) {
  RunResult r{parseProgram(src), {}, {}};
  r.sema = analyze(r.program);
  r.profile = interpret(r.program, r.sema);
  return r;
}

/// The what() text of the hetpar::Error that `fn` throws ("" if none).
template <class F>
std::string errorText(F&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Interp, ReturnsMainValue) {
  EXPECT_EQ(run("int main() { return 42; }").profile.exitValue, 42);
}

TEST(Interp, IntegerArithmeticSemantics) {
  EXPECT_EQ(run("int main() { return 7 / 2; }").profile.exitValue, 3);
  EXPECT_EQ(run("int main() { return 7 % 3; }").profile.exitValue, 1);
  EXPECT_EQ(run("int main() { return -7 / 2; }").profile.exitValue, -3);
  EXPECT_EQ(run("int main() { return 2 + 3 * 4; }").profile.exitValue, 14);
}

TEST(Interp, FloatToIntTruncation) {
  EXPECT_EQ(run("int main() { int x = 7.9; return x; }").profile.exitValue, 7);
  EXPECT_EQ(run("int main() { double d = 7.0 / 2.0; int x = d * 2.0; return x; }")
                .profile.exitValue,
            7);
}

TEST(Interp, ShortCircuitLogic) {
  // The right operand would divide by zero; && must not evaluate it.
  EXPECT_EQ(run("int main() { int z = 0; if (0 && 1 / z) { return 1; } return 2; }")
                .profile.exitValue,
            2);
  EXPECT_EQ(run("int main() { int z = 0; if (1 || 1 / z) { return 1; } return 2; }")
                .profile.exitValue,
            1);
}

TEST(Interp, LoopsAndArrays) {
  RunResult r = run(R"(
    int a[10];
    int main() {
      for (int i = 0; i < 10; i = i + 1) { a[i] = i * i; }
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) { s = s + a[i]; }
      return s;
    }
  )");
  EXPECT_EQ(r.profile.exitValue, 285);
}

TEST(Interp, TwoDimensionalArrays) {
  EXPECT_EQ(run(R"(
    int m[3][3];
    int main() {
      for (int i = 0; i < 3; i = i + 1) {
        for (int j = 0; j < 3; j = j + 1) { m[i][j] = i * 3 + j; }
      }
      return m[2][1];
    }
  )").profile.exitValue, 7);
}

TEST(Interp, ArraysPassedByReference) {
  EXPECT_EQ(run(R"(
    void fill(int v[4]) { for (int i = 0; i < 4; i = i + 1) { v[i] = i + 1; } }
    int main() { int a[4]; fill(a); return a[3]; }
  )").profile.exitValue, 4);
}

TEST(Interp, ScalarsPassedByValue) {
  EXPECT_EQ(run(R"(
    void bump(int x) { x = x + 100; }
    int main() { int x = 1; bump(x); return x; }
  )").profile.exitValue, 1);
}

TEST(Interp, Builtins) {
  EXPECT_EQ(run("int main() { return sqrt(49.0); }").profile.exitValue, 7);
  EXPECT_EQ(run("int main() { return fabs(-2.5) * 2.0; }").profile.exitValue, 5);
  EXPECT_EQ(run("int main() { return abs(-9); }").profile.exitValue, 9);
}

TEST(Interp, WhileLoop) {
  EXPECT_EQ(run("int main() { int n = 1; while (n < 100) { n = n * 2; } return n; }")
                .profile.exitValue,
            128);
}

TEST(Interp, GlobalInitializers) {
  EXPECT_EQ(run("int k = 6; int main() { return k * 7; }").profile.exitValue, 42);
}

TEST(Interp, GlobalInitializerReadsAnEarlierGlobal) {
  EXPECT_EQ(run("int a = 6; int b = a * 7; double c = b + 0.5; int main() { return c * 2.0; }")
                .profile.exitValue,
            85);
}

TEST(Interp, GlobalInitializerCallsABuiltin) {
  EXPECT_EQ(run("double s = sqrt(49.0); int k = abs(-6); int main() { return s * k; }")
                .profile.exitValue,
            42);
}

TEST(Interp, ParameterShadowsGlobal) {
  EXPECT_EQ(run(R"(
    int g = 5;
    int f(int g) { g = g + 1; return g * 10; }
    int main() { int r = f(2); return r + g; }
  )").profile.exitValue, 35);
  // An array parameter named like a global array writes the argument only.
  EXPECT_EQ(run(R"(
    int a[4];
    void set(int a[4]) { a[0] = 7; }
    int main() { int b[4]; set(b); return a[0] * 10 + b[0]; }
  )").profile.exitValue, 7);
}

TEST(Interp, SameLocalNameInTwoFunctions) {
  EXPECT_EQ(run(R"(
    int f(int n) { int t = n * 2; return t; }
    int h(int n) { int t = n + 100; int u = f(t); return u + t; }
    int main() { int t = 1; return h(t) + t; }
  )").profile.exitValue, 304);
}

TEST(Interp, ArrayPassedThroughTwoCallLevels) {
  RunResult r = run(R"(
    int g[4];
    void inner(int v[4], int k) { v[k] = v[k] + k; }
    void outer(int w[4]) { for (int i = 0; i < 4; i = i + 1) { inner(w, i); } }
    int main() {
      int a[4];
      for (int i = 0; i < 4; i = i + 1) { a[i] = 10; }
      outer(a);
      outer(g);
      return a[0] + a[1] + a[2] + a[3] + 100 * (g[0] + g[1] + g[2] + g[3]);
    }
  )");
  EXPECT_EQ(r.profile.exitValue, 646);
  EXPECT_EQ(r.profile.functionCalls.at("outer"), 2);
  EXPECT_EQ(r.profile.functionCalls.at("inner"), 8);
}

TEST(Interp, LoopBodyDeclarationsStartZeroedOnEveryIteration) {
  EXPECT_EQ(run(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) {
        int t[2];
        int x;
        s = s + t[0] + x;
        t[0] = 5;
        x = 7;
      }
      return s;
    }
  )").profile.exitValue, 0);
}

// Sema scopes names flatly per function, so a declaration in a branch
// that did not run leaves its name declared but without storage.
TEST(Interp, DeclarationThatDidNotRunIsAnUnknownVariable) {
  EXPECT_EQ(errorText([] {
              run("int main() { int c = 0; if (c) { int t = 1; } else { t = 2; } return 0; }");
            }),
            "runtime: unknown variable 't'");
  EXPECT_EQ(errorText([] {
              run("int main() { int c = 0; if (c) { int t[2]; } else { t[0] = 2; } return 0; }");
            }),
            "runtime: unknown variable 't'");
}

TEST(Interp, ArrayReadAsScalarThrows) {
  EXPECT_EQ(errorText([] { run("int a[4]; int main() { return a; }"); }),
            "runtime: 'a' is not scalar");
}

TEST(Interp, DivisionByZeroThrows) {
  EXPECT_EQ(errorText([] { run("int main() { int z = 0; return 1 / z; }"); }),
            "runtime: division by zero");
  EXPECT_EQ(errorText([] { run("int main() { int z = 0; return 1 % z; }"); }),
            "runtime: modulo by zero");
}

TEST(Interp, OutOfBoundsThrows) {
  EXPECT_EQ(errorText([] { run("int a[4]; int main() { return a[9]; }"); }),
            "array index 9 out of bounds [0,4)");
  EXPECT_EQ(errorText([] { run("int a[4]; int main() { int i = -1; return a[i]; }"); }),
            "array index -1 out of bounds [0,4)");
  EXPECT_EQ(errorText([] { run("int m[3][5]; int main() { m[2][5] = 1; return 0; }"); }),
            "array index 5 out of bounds [0,5)");
}

TEST(Interp, StepBudgetAborts) {
  InterpLimits limits;
  limits.maxSteps = 1000;
  frontend::Program p =
      parseProgram("int main() { int s = 0; for (int i = 0; i < 100000; i = i + 1) { s = s + i; } return s; }");
  auto sema = analyze(p);
  EXPECT_EQ(errorText([&] { interpret(p, sema, {}, limits); }),
            "interpreter exceeded its step budget");
}

TEST(Interp, ExecutionCountsMatchControlFlow) {
  RunResult r = run(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 5; i = i + 1) {
        s = s + i;
      }
      return s;
    }
  )");
  // Find the body assignment by scanning statement profiles: exactly one
  // statement executed 5 times.
  int fives = 0;
  for (const auto& sp : r.profile.stmts)
    if (sp.execCount == 5) ++fives;
  EXPECT_GE(fives, 1);
  EXPECT_EQ(r.profile.exitValue, 10);
}

TEST(Interp, OpsAttributedInclusivelyThroughCalls) {
  RunResult r = run(R"(
    int work(int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) { s = s + i * i; }
      return s;
    }
    int main() {
      int total = work(50);
      return total;
    }
  )");
  // The call-site declaration `int total = work(50)` must carry (at least)
  // the callee's loop work inclusively.
  const frontend::Function* mainFn = r.program.findFunction("main");
  const auto& callStmt = *mainFn->body[0];
  const double callOps = r.profile.of(callStmt.id).ops;
  EXPECT_GT(callOps, 50 * 4.0);  // far more than a bare declaration
}

TEST(Interp, CallSiteCountsRecorded) {
  RunResult r = run(R"(
    int id(int x) { return x; }
    int main() {
      int a = id(1);
      int b = 0;
      for (int i = 0; i < 3; i = i + 1) { b = b + id(i); }
      return a + b;
    }
  )");
  EXPECT_EQ(r.profile.functionCalls.at("id"), 4);
  // The loop body call site accounts for 3 of the 4 calls.
  double maxShare = 0.0;
  for (const auto& [key, count] : r.profile.callSiteCalls) {
    (void)count;
    maxShare = std::max(maxShare, r.profile.callShare(key.first, "id"));
  }
  EXPECT_NEAR(maxShare, 0.75, 1e-9);
}

TEST(Interp, TotalOpsPositiveAndBounded) {
  RunResult r = run("int main() { int x = 1 + 2; return x; }");
  EXPECT_GT(r.profile.totalOps, 0.0);
  EXPECT_LT(r.profile.totalOps, 100.0);
}

/// Digest of every ProgramProfile field, doubles by exact bit pattern.
std::string profileDigest(const ProgramProfile& p) {
  pipeline::Digest d;
  d.putU64(p.stmts.size());
  for (const StmtProfile& sp : p.stmts) {
    d.putI64(sp.execCount);
    d.putF64(sp.ops);
    for (double k : sp.mix.kind) d.putF64(k);
  }
  d.putF64(p.totalOps);
  d.putI64(p.exitValue);
  d.putU64(p.callSiteCalls.size());
  for (const auto& [site, count] : p.callSiteCalls) {
    d.putI64(site.first);
    d.put(site.second);
    d.putI64(count);
  }
  d.putU64(p.functionCalls.size());
  for (const auto& [callee, count] : p.functionCalls) {
    d.put(callee);
    d.putI64(count);
  }
  return d.hex();
}

// The profiles of the ten suite kernels are the cost model's input: any
// interpreter change must leave every profiled number bit-identical.
TEST(Interp, SuiteProfilesArePinned) {
  const std::map<std::string, std::string> pinned = {
      {"adpcm_enc", "c76afd2738b1f80d130e0cbfd022f92f"},
      {"bound_value", "da60a9f296c046392e59b9bfc8d9e827"},
      {"compress", "8fbcd5be0baa47dc03a97c1bceb6832e"},
      {"edge_detect", "30a44f579beb17a758a8eeeec757b40d"},
      {"filterbank", "d9628902084776257b2fdabfc1e6b0e3"},
      {"fir_256", "c317e668a79d2b02e003ac7949e220b0"},
      {"iir_4", "e5105fef8978123d771ac77e86d977b7"},
      {"latnrm_32", "8718d3ebb5d4c01cf8507047cf6ec676"},
      {"mult_10", "36f0871396bf8112e56411bbf80b3e34"},
      {"spectral", "32ba322346d66c0c617e63a15c9e9b5a"},
  };
  ASSERT_EQ(benchsuite::suite().size(), pinned.size());
  for (const benchsuite::Benchmark& b : benchsuite::suite()) {
    SCOPED_TRACE(b.name);
    EXPECT_EQ(profileDigest(run(b.source).profile), pinned.at(b.name));
  }
}

// Generator programs call a scalar helper and pass a global array to a
// function, which no suite kernel does: their profiles pin call frames,
// argument binding and the call-site counts.
TEST(Interp, GeneratorProfilesArePinned) {
  const std::vector<std::string> pinned = {
      "f313ca0f4d6b792a5b0b7e76ad5c9950",  // seed 0
      "1922c008b06e17a8b00392307a3d4d6a",  // seed 1
      "43194e1568ffaf49064a978438a6afdf",  // seed 2
      "a3cef8a8a9fb0c6974a1f0a68fd010d7",  // seed 3
      "2ba6ea6babec1b7d2bc578ef4114bf73",  // seed 4
      "9a1cf4924fb4ff5a8c6f5a78183c5890",  // seed 5
      "b8d456b7e834f3f2adc3d57d6525c2ac",  // seed 6
      "6bba2f07c3e80aed31a7b1f205f1e60b",  // seed 7
      "cc6da40af869715e7bb8c33454bd0a48",  // seed 8
      "15a58edf336fdacf874ebf2a9e69fc1d",  // seed 9
      "f44cb18aecdac20776ac0c0dde11f951",  // seed 10
      "1b35c6e5adb0d8f1e0745526713530d3",  // seed 11
      "4c4b8ac07a562671f2deb4ccaf380c9b",  // seed 12
      "af22fe4cd4d24bc663064fa1e0645794",  // seed 13
      "a8b57da2332fbe67cf0f4b515534c819",  // seed 14
      "4a12d15b294297564a3cbab0b3884694",  // seed 15
      "95cd75ed89e02589fee1d9a11587de3f",  // seed 16
      "b18b25d16e26cb4fab9edec089d0e6fd",  // seed 17
      "911cc68dbdf09f9e1b61266b182be434",  // seed 18
      "ba382f379ad0971d1d733f0ea5c12f7f",  // seed 19
      "e05fae204dd8b227eb7bfe2ec8f0d7bd",  // seed 20
      "b91279b0430c541c762e22b03e49196e",  // seed 21
      "8331ac50994765a7c3e91447a529f7a5",  // seed 22
      "4e28b64affae1cd042fcc4e6df4ea8ce",  // seed 23
      "90ebc42f276644eb25067a4ff8033d0d",  // seed 24
      "74e2b877e406280c383f3d79514922f6",  // seed 25
      "65c8f3f5efa3e7384331a0bad8193a76",  // seed 26
      "aed87fe919e3c1b442a3ab6e1caae636",  // seed 27
      "c6d6f743c9891bfc29afee35669c5a92",  // seed 28
      "fa9a52b684f8278f12e13e7d81f24601",  // seed 29
      "e17e920366cb2d09ea37c281a67330a3",  // seed 30
      "8c1690322cdf616c2ac32d786e35b17e",  // seed 31
  };
  for (std::size_t seed = 0; seed < pinned.size(); ++seed) {
    SCOPED_TRACE(seed);
    const std::string source = verify::generateProgram(seed).render();
    const ProgramProfile profile = run(source.c_str()).profile;
    EXPECT_FALSE(profile.functionCalls.empty());
    EXPECT_EQ(profileDigest(profile), pinned[seed]);
  }
}

}  // namespace
}  // namespace hetpar::cost
