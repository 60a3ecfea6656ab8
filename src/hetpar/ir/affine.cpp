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
      return AffineForm{-f->c0, -f->c1, f->c1 == 0 ? std::string() : f->iv};
    }
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      auto l = liftAffine(*e.lhs);
      auto r = liftAffine(*e.rhs);
      if (!l || !r) return std::nullopt;
      switch (e.op) {
        case BinaryOp::Add:
        case BinaryOp::Sub: {
          const long long sign = e.op == BinaryOp::Add ? 1 : -1;
          AffineForm out;
          out.c0 = l->c0 + sign * r->c0;
          if (l->isConstant()) {
            out.c1 = sign * r->c1;
            out.iv = r->iv;
          } else if (r->isConstant()) {
            out.c1 = l->c1;
            out.iv = l->iv;
          } else if (l->iv == r->iv) {
            out.c1 = l->c1 + sign * r->c1;
            out.iv = l->iv;
          } else {
            return std::nullopt;  // two distinct variables
          }
          if (out.c1 == 0) out.iv.clear();
          return out;
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
          AffineForm out;
          out.c0 = var->c0 * cst->c0;
          out.c1 = var->c1 * cst->c0;
          out.iv = out.c1 == 0 ? std::string() : var->iv;
          return out;
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
