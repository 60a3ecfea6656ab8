#include "hetpar/ir/affine.hpp"

#include "hetpar/ir/tripcount.hpp"

namespace hetpar::ir {

using frontend::BinaryExpr;
using frontend::BinaryOp;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ForStmt;
using frontend::UnaryExpr;
using frontend::UnaryOp;
using frontend::VarRef;

using ConstEnv = std::map<std::string, long long>;

std::optional<std::pair<std::string, IvRange>> ivRangeOf(const ForStmt& loop,
                                                         const ConstEnv* env) {
  const auto trip = staticTripCount(loop, env);
  if (!trip || *trip <= 0) return std::nullopt;
  const auto canon = matchCanonicalLoop(loop, env);
  if (!canon) return std::nullopt;
  IvRange range;
  range.first = canon->start;
  range.step = canon->step;
  // The last value lies between start and the bound, so the wrapping
  // unsigned product and sum give it exactly.
  const auto offset = static_cast<unsigned long long>(*trip - 1) *
                      static_cast<unsigned long long>(canon->step);
  range.last = static_cast<long long>(static_cast<unsigned long long>(canon->start) + offset);
  return std::make_pair(canon->var, range);
}

std::optional<std::pair<std::string, IvRange>> ivRangeOf(const ForStmt& loop) {
  return ivRangeOf(loop, nullptr);
}

namespace {

/// l + r, l - r or l * r; nullopt when the result leaves long long (a
/// coefficient that does not fit has no affine form).
std::optional<long long> checkedArith(BinaryOp op, long long l, long long r) {
  long long out = 0;
  bool overflow = false;
  switch (op) {
    case BinaryOp::Add: overflow = __builtin_add_overflow(l, r, &out); break;
    case BinaryOp::Sub: overflow = __builtin_sub_overflow(l, r, &out); break;
    default: overflow = __builtin_mul_overflow(l, r, &out); break;
  }
  if (overflow) return std::nullopt;
  return out;
}

}  // namespace

std::optional<AffineForm> liftAffine(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::IntLit:
      return AffineForm{static_cast<const frontend::IntLit&>(expr).value, 0, ""};
    case ExprKind::VarRef:
      return AffineForm{0, 1, static_cast<const VarRef&>(expr).name};
    case ExprKind::Unary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      if (e.op != UnaryOp::Neg) return std::nullopt;
      auto f = liftAffine(*e.operand);
      if (!f) return std::nullopt;
      const auto c0 = checkedArith(BinaryOp::Sub, 0, f->c0);
      const auto c1 = checkedArith(BinaryOp::Sub, 0, f->c1);
      if (!c0 || !c1) return std::nullopt;
      return AffineForm{*c0, *c1, f->c1 == 0 ? std::string() : f->iv};
    }
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      auto l = liftAffine(*e.lhs);
      auto r = liftAffine(*e.rhs);
      if (!l || !r) return std::nullopt;
      switch (e.op) {
        case BinaryOp::Add:
        case BinaryOp::Sub: {
          std::optional<long long> c1;
          std::string iv;
          if (l->isConstant()) {
            c1 = checkedArith(e.op, 0, r->c1);
            iv = r->iv;
          } else if (r->isConstant()) {
            c1 = l->c1;
            iv = l->iv;
          } else if (l->iv == r->iv) {
            c1 = checkedArith(e.op, l->c1, r->c1);
            iv = l->iv;
          } else {
            return std::nullopt;  // two distinct variables
          }
          const auto c0 = checkedArith(e.op, l->c0, r->c0);
          if (!c0 || !c1) return std::nullopt;
          if (*c1 == 0) iv.clear();
          return AffineForm{*c0, *c1, std::move(iv)};
        }
        case BinaryOp::Mul: {
          const AffineForm* var = nullptr;
          const AffineForm* cst = nullptr;
          if (l->isConstant()) {
            cst = &*l;
            var = &*r;
          } else if (r->isConstant()) {
            cst = &*r;
            var = &*l;
          } else {
            return std::nullopt;  // iv * iv is not affine
          }
          const auto c0 = checkedArith(BinaryOp::Mul, var->c0, cst->c0);
          const auto c1 = checkedArith(BinaryOp::Mul, var->c1, cst->c0);
          if (!c0 || !c1) return std::nullopt;
          return AffineForm{*c0, *c1, *c1 == 0 ? std::string() : var->iv};
        }
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

}  // namespace hetpar::ir
