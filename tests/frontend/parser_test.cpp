#include "hetpar/frontend/parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hetpar/frontend/printer.hpp"
#include "hetpar/support/error.hpp"

namespace hetpar::frontend {
namespace {

TEST(Parser, MinimalMain) {
  Program p = parseProgram("int main() { return 0; }");
  ASSERT_EQ(p.functions.size(), 1u);
  EXPECT_EQ(p.functions[0]->name, "main");
  ASSERT_EQ(p.functions[0]->body.size(), 1u);
  EXPECT_EQ(p.functions[0]->body[0]->kind, StmtKind::Return);
}

TEST(Parser, GlobalsAndArrays) {
  Program p = parseProgram(R"(
    int n = 8;
    float buf[64];
    double m[4][4];
    int main() { return 0; }
  )");
  ASSERT_EQ(p.globals.size(), 3u);
  const auto& m = static_cast<const DeclStmt&>(*p.globals[2]);
  EXPECT_EQ(m.type.scalar, ScalarType::Double);
  ASSERT_EQ(m.type.dims.size(), 2u);
  EXPECT_EQ(m.type.dims[0], 4);
  EXPECT_EQ(m.type.byteSize(), 4 * 4 * 8);
}

TEST(Parser, FunctionParams) {
  Program p = parseProgram("void f(int n, float a[16]) { } int main() { return 0; }");
  const Function& f = *p.functions[0];
  ASSERT_EQ(f.params.size(), 2u);
  EXPECT_FALSE(f.params[0].type.isArray());
  EXPECT_TRUE(f.params[1].type.isArray());
  EXPECT_EQ(f.params[1].type.dims[0], 16);
}

TEST(Parser, ForLoopCanonical) {
  Program p = parseProgram("int main() { int s = 0; for (int i = 0; i < 10; i++) { s = s + i; } return s; }");
  const auto& loop = static_cast<const ForStmt&>(*p.functions[0]->body[1]);
  ASSERT_NE(loop.init, nullptr);
  EXPECT_EQ(loop.init->kind, StmtKind::Decl);
  ASSERT_NE(loop.step, nullptr);
  // i++ desugars to i = i + 1.
  const auto& step = static_cast<const AssignStmt&>(*loop.step);
  EXPECT_EQ(step.target, "i");
  EXPECT_EQ(step.value->kind, ExprKind::Binary);
}

TEST(Parser, CompoundAssignDesugars) {
  Program p = parseProgram("int main() { int x = 1; x += 4; x *= 2; return x; }");
  const auto& s1 = static_cast<const AssignStmt&>(*p.functions[0]->body[1]);
  const auto& b1 = static_cast<const BinaryExpr&>(*s1.value);
  EXPECT_EQ(b1.op, BinaryOp::Add);
  const auto& s2 = static_cast<const AssignStmt&>(*p.functions[0]->body[2]);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*s2.value).op, BinaryOp::Mul);
}

TEST(Parser, ArrayElementCompoundAssign) {
  Program p = parseProgram("int a[4]; int main() { a[2] += 5; return a[2]; }");
  const auto& s = static_cast<const AssignStmt&>(*p.functions[0]->body[0]);
  EXPECT_EQ(s.target, "a");
  ASSERT_EQ(s.indices.size(), 1u);
  const auto& rhs = static_cast<const BinaryExpr&>(*s.value);
  EXPECT_EQ(rhs.lhs->kind, ExprKind::Index);
}

TEST(Parser, PrecedenceMulBeforeAdd) {
  Program p = parseProgram("int main() { int x = 1 + 2 * 3; return x; }");
  const auto& d = static_cast<const DeclStmt&>(*p.functions[0]->body[0]);
  const auto& add = static_cast<const BinaryExpr&>(*d.init);
  EXPECT_EQ(add.op, BinaryOp::Add);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*add.rhs).op, BinaryOp::Mul);
}

TEST(Parser, PrecedenceComparisonBelowLogic) {
  Program p = parseProgram("int main() { int x = 1 < 2 && 3 > 2 || 0; return x; }");
  const auto& d = static_cast<const DeclStmt&>(*p.functions[0]->body[0]);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*d.init).op, BinaryOp::Or);
}

TEST(Parser, IfElseChained) {
  Program p = parseProgram(R"(int main() {
    int x = 3;
    if (x > 2) x = 1; else if (x > 1) x = 2; else x = 3;
    return x;
  })");
  const auto& s = static_cast<const IfStmt&>(*p.functions[0]->body[1]);
  ASSERT_EQ(s.elseBody.size(), 1u);
  EXPECT_EQ(s.elseBody[0]->kind, StmtKind::If);
}

TEST(Parser, WhileLoop) {
  Program p = parseProgram("int main() { int i = 0; while (i < 4) i = i + 1; return i; }");
  EXPECT_EQ(p.functions[0]->body[1]->kind, StmtKind::While);
}

TEST(Parser, CallsAndBuiltins) {
  Program p = parseProgram(R"(
    int twice(int v) { return v * 2; }
    int main() { int x = twice(21); double y = sqrt(4.0); return x; }
  )");
  const auto& d = static_cast<const DeclStmt&>(*p.functions[1]->body[0]);
  EXPECT_EQ(d.init->kind, ExprKind::Call);
  EXPECT_EQ(static_cast<const CallExpr&>(*d.init).callee, "twice");
}

TEST(Parser, TwoDimensionalIndexing) {
  Program p = parseProgram("int m[3][3]; int main() { m[1][2] = 7; return m[1][2]; }");
  const auto& a = static_cast<const AssignStmt&>(*p.functions[0]->body[0]);
  EXPECT_EQ(a.indices.size(), 2u);
}

TEST(Parser, RejectsThreeDimensionalArrays) {
  EXPECT_THROW(parseProgram("int a[2][2][2]; int main() { return 0; }"), ParseError);
}

TEST(Parser, RejectsArrayDimensionsOutsideIntRange) {
  EXPECT_THROW(parseProgram("int a[0]; int main() { return 0; }"), ParseError);
  // 2^32 - 1 would wrap to -1 as an int dimension.
  EXPECT_THROW(parseProgram("int a[4294967295]; int main() { return 0; }"), ParseError);
  EXPECT_NO_THROW(parseProgram("int a[2147483647]; int main() { return 0; }"));
}

TEST(Parser, RejectsSyntaxErrors) {
  EXPECT_THROW(parseProgram("int main() { return 0 }"), ParseError);       // missing ;
  EXPECT_THROW(parseProgram("int main() { int = 3; }"), ParseError);       // missing name
  EXPECT_THROW(parseProgram("int main() { if x > 2 x = 1; }"), ParseError);  // missing (
  EXPECT_THROW(parseProgram("int main() { foo(; }"), ParseError);
}

// Programs nested exactly `depth` levels deep: `return` and its expression
// take two; each parenthesis, block or chained operator one more.
std::string nestedParens(int depth) {
  const auto n = static_cast<std::size_t>(depth - 2);
  return "int main() { return " + std::string(n, '(') + "1" + std::string(n, ')') + "; }";
}
std::string nestedBlocks(int depth) {
  const auto n = static_cast<std::size_t>(depth - 2);
  return "int main() { " + std::string(n, '{') + " return 0; " + std::string(n, '}') + " }";
}
std::string operatorChain(int depth) {
  std::string src = "int main() { return 1";
  for (int i = 2; i < depth; ++i) src += " + 1";
  return src + "; }";
}

TEST(Parser, AcceptsNestingAtTheLimit) {
  for (const auto make : {nestedParens, nestedBlocks, operatorChain})
    EXPECT_NO_THROW(parseProgram(make(kMaxNestingDepth))) << make(kMaxNestingDepth);
}

TEST(Parser, RejectsNestingPastTheLimitWithALocatedError) {
  for (const auto make : {nestedParens, nestedBlocks, operatorChain}) {
    try {
      parseProgram(make(kMaxNestingDepth + 1));
      ADD_FAILURE() << "accepted " << make(kMaxNestingDepth + 1);
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("parse error at line 1 column "), std::string::npos) << what;
      EXPECT_NE(what.find("nesting deeper than 256 levels"), std::string::npos) << what;
    }
  }
}

TEST(Parser, CloneExprDeepCopies) {
  Program p = parseProgram("int main() { int x = (1 + 2) * sqrt(9.0); return x; }");
  const auto& d = static_cast<const DeclStmt&>(*p.functions[0]->body[0]);
  ExprPtr copy = cloneExpr(*d.init);
  EXPECT_EQ(printExpr(*copy), printExpr(*d.init));
  EXPECT_NE(copy.get(), d.init.get());
}

TEST(Parser, PrintRoundTrips) {
  const char* src = R"(
    int n = 4;
    int a[8];
    int sum(int k) {
      int s = 0;
      for (int i = 0; i < k; i = i + 1) {
        s = s + a[i];
      }
      return s;
    }
    int main() {
      for (int i = 0; i < 8; i = i + 1) {
        a[i] = i * i;
      }
      return sum(n);
    }
  )";
  Program p1 = parseProgram(src);
  const std::string printed = printProgram(p1);
  Program p2 = parseProgram(printed);  // printed output must re-parse
  EXPECT_EQ(printProgram(p2), printed);
}

}  // namespace
}  // namespace hetpar::frontend
