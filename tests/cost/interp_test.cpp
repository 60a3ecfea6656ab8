#include "hetpar/cost/interp.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/pipeline/digest.hpp"
#include "hetpar/support/error.hpp"

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

}  // namespace
}  // namespace hetpar::cost
