#include "hetpar/frontend/sema.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hetpar/frontend/parser.hpp"
#include "hetpar/support/error.hpp"

namespace hetpar::frontend {
namespace {

Program parsed(const char* src) { return parseProgram(src); }

TEST(Sema, AssignsUniqueStatementIds) {
  Program p = parsed(R"(int main() {
    int x = 1;
    for (int i = 0; i < 3; i = i + 1) { x = x + i; }
    return x;
  })");
  SemaResult r = analyze(p);
  std::set<int> ids;
  forEachStmt(p, [&](Stmt& s) {
    EXPECT_GE(s.id, 0);
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate id " << s.id;
  });
  EXPECT_EQ(static_cast<int>(ids.size()), r.numStatements);
}

TEST(Sema, RequiresMain) {
  Program p = parsed("int foo() { return 1; }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, RejectsUndeclaredVariable) {
  Program p = parsed("int main() { x = 3; return 0; }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, RejectsUndeclaredInExpression) {
  Program p = parsed("int main() { int x = y + 1; return x; }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, RejectsDuplicateGlobal) {
  Program p = parsed("int a; int a; int main() { return 0; }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, RejectsDuplicateFunction) {
  Program p = parsed("int f() { return 1; } int f() { return 2; } int main() { return 0; }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, RejectsRedeclarationInFunction) {
  Program p = parsed("int main() { int x = 1; int x = 2; return x; }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, LocalMayShadowGlobal) {
  Program p = parsed("int x = 5; int main() { int x = 1; return x; }");
  EXPECT_NO_THROW(analyze(p));
}

TEST(Sema, RejectsIndexCountMismatch) {
  Program p = parsed("int a[4][4]; int main() { a[1] = 2; return 0; }");
  EXPECT_THROW(analyze(p), SemaError);
  Program q = parsed("int b[4]; int main() { return b[1][2]; }");
  EXPECT_THROW(analyze(q), SemaError);
}

TEST(Sema, RejectsCallArityMismatch) {
  Program p = parsed("int f(int a, int b) { return a + b; } int main() { return f(1); }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, RejectsUnknownCallee) {
  Program p = parsed("int main() { return g(1); }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, RejectsArrayArgumentShapeMismatch) {
  Program p = parsed(R"(
    int a[8];
    void f(int v[16]) { v[0] = 1; }
    int main() { f(a); return 0; }
  )");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, AcceptsMatchingArrayArgument) {
  Program p = parsed(R"(
    int a[8];
    void f(int v[8]) { v[0] = 1; }
    int main() { f(a); return a[0]; }
  )");
  EXPECT_NO_THROW(analyze(p));
}

TEST(Sema, RejectsRecursion) {
  Program p = parsed("int f(int n) { return f(n - 1); } int main() { return f(3); }");
  EXPECT_THROW(analyze(p), SemaError);
}

TEST(Sema, ForwardDeclarationsRejectedByGrammar) {
  // Mutual recursion needs forward declarations, which mini-C's grammar has
  // no syntax for — the parser rejects them, so only self-recursion can
  // reach sema (covered by RejectsRecursion).
  EXPECT_THROW(parsed("int g(int n); int main() { return 0; }"), ParseError);
}

TEST(Sema, RejectsVoidReturnMismatch) {
  Program p = parsed("void f() { return 3; } int main() { f(); return 0; }");
  EXPECT_THROW(analyze(p), SemaError);
  Program q = parsed("int f() { return; } int main() { return f(); }");
  EXPECT_THROW(analyze(q), SemaError);
}

TEST(Sema, BottomUpOrderHasCalleesFirst) {
  Program p = parsed(R"(
    int leaf(int x) { return x + 1; }
    int mid(int x) { return leaf(x) * 2; }
    int main() { return mid(3); }
  )");
  SemaResult r = analyze(p);
  ASSERT_EQ(r.bottomUpOrder.size(), 3u);
  std::map<std::string, std::size_t> pos;
  for (std::size_t i = 0; i < r.bottomUpOrder.size(); ++i)
    pos[r.bottomUpOrder[i]->name] = i;
  EXPECT_LT(pos["leaf"], pos["mid"]);
  EXPECT_LT(pos["mid"], pos["main"]);
}

TEST(Sema, LookupFindsLocalsParamsGlobals) {
  Program p = parsed(R"(
    float g[4];
    int f(int n) { double d = 1.0; return n; }
    int main() { return f(2); }
  )");
  SemaResult r = analyze(p);
  const Function* f = p.findFunction("f");
  ASSERT_NE(r.lookup(f, "d"), nullptr);
  EXPECT_EQ(r.lookup(f, "d")->scalar, ScalarType::Double);
  ASSERT_NE(r.lookup(f, "n"), nullptr);
  ASSERT_NE(r.lookup(f, "g"), nullptr);
  EXPECT_TRUE(r.lookup(f, "g")->isArray());
  EXPECT_EQ(r.lookup(f, "nope"), nullptr);
}

/// The SemaError text `analyze` throws for `src` ("" if it accepts it).
std::string semaErrorOf(const char* src) {
  Program p = parsed(src);
  try {
    analyze(p);
  } catch (const SemaError& e) {
    return e.what();
  }
  return "";
}

TEST(Sema, RejectsArraysOverTheObjectLimit) {
  // At the limit is fine; one more element is not, wherever it is declared.
  static_assert(kMaxArrayElements == 4096LL * 1024);
  EXPECT_EQ(semaErrorOf("double a[4096][1024]; int main() { return 0; }"), "");
  EXPECT_EQ(semaErrorOf("int a[4194305]; int main() { return 0; }"),
            "sema error at line 1: array 'a' has 4194305 elements, more than the limit of "
            "4194304");
  EXPECT_EQ(semaErrorOf("int main() {\n  int b[2000000000];\n  return 0;\n}"),
            "sema error at line 2: array 'b' has 2000000000 elements, more than the limit of "
            "4194304");
  EXPECT_EQ(semaErrorOf("int main() { int m[2147483647][2147483647]; return 0; }"),
            "sema error at line 1: array 'm' has 4611686014132420609 elements, more than the "
            "limit of 4194304");
}

TEST(Sema, RejectsArraysOverTheTotalLimit) {
  // Four arrays at the object limit fill the total; a fifth element anywhere
  // (here a local of a callee) goes over it. Parameters do not count.
  static_assert(kMaxTotalArrayElements == 4 * kMaxArrayElements);
  const std::string four =
      "int a[4194304]; int b[4194304]; int c[4194304]; double d[2048][2048];\n";
  EXPECT_EQ(semaErrorOf((four + "int f(int p[4194304]) { return p[0]; }\n"
                                "int main() { return f(a); }").c_str()),
            "");
  EXPECT_EQ(semaErrorOf((four + "int f() { int e[1]; return e[0]; }\n"
                                "int main() { return f(); }").c_str()),
            "sema error at line 2: array 'e' brings the program's arrays to 16777217 elements, "
            "more than the limit of 16777216");
}

}  // namespace
}  // namespace hetpar::frontend
