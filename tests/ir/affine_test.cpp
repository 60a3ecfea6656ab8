#include "hetpar/ir/affine.hpp"

#include <gtest/gtest.h>

#include "hetpar/frontend/parser.hpp"

namespace hetpar::ir {
namespace {

using frontend::DeclStmt;
using frontend::ExprKind;
using frontend::ForStmt;
using frontend::IndexExpr;
using frontend::StmtKind;

/// Parses `a[<subscript>]` in a tiny harness program and returns the lifted
/// form of the subscript expression.
std::optional<AffineForm> lift(const std::string& subscript) {
  const std::string src =
      "int a[1024]; int main() { int i = 3; int j = 4; int x = a[" + subscript +
      "]; return x + j; }";
  static std::vector<frontend::Program> keepAlive;  // forms point into the AST
  keepAlive.push_back(frontend::parseProgram(src));
  const frontend::Program& program = keepAlive.back();
  const auto& decl = static_cast<const DeclStmt&>(*program.findFunction("main")->body[2]);
  EXPECT_EQ(decl.init->kind, ExprKind::Index);
  const auto& index = static_cast<const IndexExpr&>(*decl.init);
  return liftAffine(*index.indices[0]);
}

/// Parses a `for` loop as main's first statement and returns its IV range.
std::optional<std::pair<std::string, IvRange>> range(const std::string& loop) {
  static std::vector<frontend::Program> keepAlive;
  keepAlive.push_back(frontend::parseProgram("int main() { " + loop + " return 0; }"));
  const frontend::Stmt& s = *keepAlive.back().findFunction("main")->body[0];
  EXPECT_EQ(s.kind, StmtKind::For);
  return ivRangeOf(static_cast<const ForStmt&>(s));
}

TEST(Affine, ConstantSubscript) {
  auto f = lift("7");
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->isConstant());
  EXPECT_EQ(f->c0, 7);
  EXPECT_EQ(f->c1, 0);
}

TEST(Affine, PlainVariable) {
  auto f = lift("i");
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->iv, "i");
  EXPECT_EQ(f->c0, 0);
  EXPECT_EQ(f->c1, 1);
}

TEST(Affine, OffsetsBothSides) {
  auto plus = lift("i + 3");
  ASSERT_TRUE(plus.has_value());
  EXPECT_EQ(plus->c0, 3);
  EXPECT_EQ(plus->c1, 1);

  auto flipped = lift("3 + i");
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(flipped->c0, 3);
  EXPECT_EQ(flipped->c1, 1);

  auto minus = lift("i - 1");
  ASSERT_TRUE(minus.has_value());
  EXPECT_EQ(minus->c0, -1);
  EXPECT_EQ(minus->c1, 1);
}

TEST(Affine, ScaledVariable) {
  auto twice = lift("2 * i");
  ASSERT_TRUE(twice.has_value());
  EXPECT_EQ(twice->c1, 2);
  EXPECT_EQ(twice->c0, 0);

  auto composed = lift("2 * i + 1");
  ASSERT_TRUE(composed.has_value());
  EXPECT_EQ(composed->c1, 2);
  EXPECT_EQ(composed->c0, 1);

  auto negated = lift("0 - i");
  ASSERT_TRUE(negated.has_value());
  EXPECT_EQ(negated->c1, -1);
}

TEST(Affine, RejectsNonAffineForms) {
  EXPECT_FALSE(lift("i * i").has_value()) << "quadratic";
  EXPECT_FALSE(lift("i + j").has_value()) << "two variables";
  EXPECT_FALSE(lift("i / 2").has_value()) << "division";
  EXPECT_FALSE(lift("a[i]").has_value()) << "array read inside subscript";
}

TEST(Affine, CanonicalLoopRange) {
  auto r = range("for (int i = 0; i < 10; i = i + 1) { int t = i; }");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, "i");
  EXPECT_EQ(r->second.first, 0);
  EXPECT_EQ(r->second.last, 9);
  EXPECT_EQ(r->second.step, 1);
  EXPECT_EQ(r->second.lo(), 0);
  EXPECT_EQ(r->second.hi(), 9);
}

TEST(Affine, StridedAndDescendingLoops) {
  auto strided = range("for (int i = 0; i < 10; i = i + 2) { int t = i; }");
  ASSERT_TRUE(strided.has_value());
  EXPECT_EQ(strided->second.first, 0);
  EXPECT_EQ(strided->second.last, 8);
  EXPECT_EQ(strided->second.step, 2);

  auto down = range("for (int i = 9; i > 0; i = i - 1) { int t = i; }");
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->second.first, 9);
  EXPECT_EQ(down->second.last, 1);
  EXPECT_EQ(down->second.step, -1);
  EXPECT_EQ(down->second.lo(), 1);
  EXPECT_EQ(down->second.hi(), 9);
}

TEST(Affine, NonCanonicalLoopsYieldNoRange) {
  EXPECT_FALSE(range("for (int i = 0; i < 10; i = i * 2) { int t = i; }").has_value());
  EXPECT_FALSE(range("for (int i = 5; i < 5; i = i + 1) { int t = i; }").has_value())
      << "zero-trip loops sweep nothing";
}

TEST(Affine, CoefficientsThatOverflowHaveNoForm) {
  EXPECT_FALSE(lift("-(-9223372036854775807 - 1)").has_value());
  EXPECT_FALSE(lift("i * 4611686018427387904 * 2").has_value());
  EXPECT_FALSE(lift("9223372036854775807 + i + 1").has_value());
  EXPECT_FALSE(lift("i - (-9223372036854775807 - 1)").has_value()) << "c0 = 0 - LLONG_MIN";
  EXPECT_FALSE(lift("0 - (-9223372036854775807 - 1) * i").has_value()) << "c1 = -LLONG_MIN";
  const auto edge = lift("(-9223372036854775807 - 1) * i + 9223372036854775807");
  ASSERT_TRUE(edge.has_value()) << "coefficients at the edges still fit";
  EXPECT_EQ(edge->c0, 9223372036854775807LL);
  EXPECT_EQ(edge->c1, -9223372036854775807LL - 1);
}

}  // namespace
}  // namespace hetpar::ir
