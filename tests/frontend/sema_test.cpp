#include "hetpar/frontend/sema.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/verify/generator.hpp"

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

/// Checks that sema bound every name use to the slot its declaration owns,
/// and every call to its callee and a unique site number.
void expectFullyBound(const Program& p, const SemaResult& r) {
  auto nameOfGlobal = [&](int i) {
    return static_cast<const DeclStmt&>(*p.globals[static_cast<std::size_t>(i)]).name;
  };
  for (std::size_t i = 0; i < p.globals.size(); ++i) {
    const auto& d = static_cast<const DeclStmt&>(*p.globals[i]);
    EXPECT_TRUE(d.binding.global);
    EXPECT_EQ(d.binding.index, static_cast<int>(i));
  }
  std::set<int> sites;
  std::vector<std::string> locals;  // the current function's slot names
  const auto expectBound = [&](const Binding& b, const std::string& name) {
    ASSERT_GE(b.index, 0) << name;
    if (b.global) {
      ASSERT_LT(b.index, static_cast<int>(p.globals.size())) << name;
      EXPECT_EQ(nameOfGlobal(b.index), name);
    } else {
      ASSERT_LT(b.index, static_cast<int>(locals.size())) << name;
      EXPECT_EQ(locals[static_cast<std::size_t>(b.index)], name);
    }
  };
  std::function<void(const Expr&)> checkExpr = [&](const Expr& e) {
    switch (e.kind) {
      case ExprKind::VarRef: {
        const auto& x = static_cast<const VarRef&>(e);
        expectBound(x.binding, x.name);
        break;
      }
      case ExprKind::Index: {
        const auto& x = static_cast<const IndexExpr&>(e);
        expectBound(x.binding, x.name);
        for (const auto& i : x.indices) checkExpr(*i);
        break;
      }
      case ExprKind::Unary:
        checkExpr(*static_cast<const UnaryExpr&>(e).operand);
        break;
      case ExprKind::Binary:
        checkExpr(*static_cast<const BinaryExpr&>(e).lhs);
        checkExpr(*static_cast<const BinaryExpr&>(e).rhs);
        break;
      case ExprKind::Call: {
        const auto& x = static_cast<const CallExpr&>(e);
        EXPECT_EQ(x.builtin, builtinFunction(x.callee));
        if (x.builtin == Builtin::None) {
          ASSERT_NE(x.function, nullptr) << x.callee;
          EXPECT_EQ(x.function->name, x.callee);
          EXPECT_GE(x.site, 0);
          EXPECT_LT(x.site, r.numCallSites);
          EXPECT_TRUE(sites.insert(x.site).second) << "duplicate site " << x.site;
        }
        for (const auto& a : x.args) checkExpr(*a);
        break;
      }
      default:
        break;
    }
  };
  const auto checkStmt = [&](Stmt& s) {
    switch (s.kind) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        expectBound(d.binding, d.name);
        if (d.init) checkExpr(*d.init);
        break;
      }
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        expectBound(a.binding, a.target);
        for (const auto& i : a.indices) checkExpr(*i);
        checkExpr(*a.value);
        break;
      }
      case StmtKind::If: checkExpr(*static_cast<const IfStmt&>(s).cond); break;
      case StmtKind::For: checkExpr(*static_cast<const ForStmt&>(s).cond); break;
      case StmtKind::While: checkExpr(*static_cast<const WhileStmt&>(s).cond); break;
      case StmtKind::Return:
        if (const auto& v = static_cast<const ReturnStmt&>(s).value) checkExpr(*v);
        break;
      case StmtKind::Expr: checkExpr(*static_cast<const ExprStmt&>(s).expr); break;
      case StmtKind::Block: break;
    }
  };
  for (const auto& g : p.globals) checkStmt(*g);
  for (const auto& f : p.functions) {
    // Parameters take the first slots, then each declaration its own one.
    locals.assign(static_cast<std::size_t>(f->numLocals), "");
    for (std::size_t k = 0; k < f->params.size(); ++k) {
      EXPECT_FALSE(f->params[k].binding.global);
      EXPECT_EQ(f->params[k].binding.index, static_cast<int>(k));
      locals[k] = f->params[k].name;
    }
    for (const auto& s : f->body)
      forEachStmt(*s, [&](Stmt& st) {
        if (st.kind != StmtKind::Decl) return;
        const auto& d = static_cast<const DeclStmt&>(st);
        EXPECT_FALSE(d.binding.global) << d.name;
        ASSERT_GE(d.binding.index, static_cast<int>(f->params.size())) << d.name;
        ASSERT_LT(d.binding.index, f->numLocals) << d.name;
        EXPECT_EQ(locals[static_cast<std::size_t>(d.binding.index)], "") << d.name;
        locals[static_cast<std::size_t>(d.binding.index)] = d.name;
      });
    for (const std::string& name : locals) EXPECT_NE(name, "") << "unused slot in " << f->name;
    for (const auto& s : f->body) forEachStmt(*s, checkStmt);
  }
  EXPECT_EQ(static_cast<int>(sites.size()), r.numCallSites);
}

TEST(Sema, BindsEveryNameToItsSlot) {
  std::vector<std::string> sources = {R"(
    int g = 5;
    int a[4];
    int h = g * 2;
    int f(int g, int a[4]) {
      int t = g;
      for (int i = 0; i < 4; i = i + 1) { int u[2]; u[0] = i; a[i] = t + u[0]; }
      return t;
    }
    int k(int n) { int t = n; { int t = 2; n = n + t; } return f(n, a) + t + sqrt(4.0); }
    int w(int c) { if (c) { int q = 1; } q = 3; return q; }
    int main() { int t = k(g); int g = t + h; return g; }
  )"};
  for (const benchsuite::Benchmark& b : benchsuite::suite()) sources.push_back(b.source);
  for (std::uint64_t seed = 0; seed < 32; ++seed)
    sources.push_back(verify::generateProgram(seed).render());
  for (const std::string& src : sources) {
    SCOPED_TRACE(src.substr(0, 80));
    Program p = parseProgram(src);
    const SemaResult r = analyze(p);
    expectFullyBound(p, r);
  }
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

TEST(Sema, ChecksCallsInGlobalInitializers) {
  // Builtins are allowed and resolved; a user call is refused as such, not
  // as an unknown function.
  Program p = parsed("double s = sqrt(2.0); int main() { return 0; }");
  analyze(p);
  const auto& s = static_cast<const DeclStmt&>(*p.globals[0]);
  EXPECT_EQ(static_cast<const CallExpr&>(*s.init).builtin, Builtin::Sqrt);
  EXPECT_EQ(semaErrorOf("int f() { return 1; }\nint g = f();\nint main() { return g; }"),
            "sema error at line 2: calls are not allowed in global initializers");
  EXPECT_EQ(semaErrorOf("int g = h(); int main() { return 0; }"),
            "sema error at line 1: call to unknown function 'h'");
  EXPECT_EQ(semaErrorOf("double s = sqrt(1.0, 2.0); int main() { return 0; }"),
            "sema error at line 1: builtin 'sqrt' takes one argument");
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
