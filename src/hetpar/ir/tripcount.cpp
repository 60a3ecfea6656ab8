#include "hetpar/ir/tripcount.hpp"

#include <climits>
#include <string>

namespace hetpar::ir {

using frontend::AssignStmt;
using frontend::BinaryExpr;
using frontend::BinaryOp;
using frontend::DeclStmt;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ForStmt;
using frontend::StmtKind;
using frontend::UnaryExpr;
using frontend::UnaryOp;
using frontend::VarRef;

using ConstEnv = std::map<std::string, long long>;

std::optional<long long> foldIntArith(BinaryOp op, long long l, long long r) {
  const auto ul = static_cast<unsigned long long>(l);
  const auto ur = static_cast<unsigned long long>(r);
  switch (op) {
    case BinaryOp::Add: return static_cast<long long>(ul + ur);
    case BinaryOp::Sub: return static_cast<long long>(ul - ur);
    case BinaryOp::Mul: return static_cast<long long>(ul * ur);
    case BinaryOp::Div:
    case BinaryOp::Mod:
      if (r == 0 || (l == LLONG_MIN && r == -1)) return std::nullopt;
      return op == BinaryOp::Div ? l / r : l % r;
    default: return std::nullopt;
  }
}

std::optional<long long> evalConstInt(const Expr& expr, const ConstEnv* env) {
  switch (expr.kind) {
    case ExprKind::IntLit:
      return static_cast<const frontend::IntLit&>(expr).value;
    case ExprKind::VarRef: {
      if (env == nullptr) return std::nullopt;
      const auto it = env->find(static_cast<const VarRef&>(expr).name);
      if (it == env->end()) return std::nullopt;
      return it->second;
    }
    case ExprKind::Unary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      if (e.op != UnaryOp::Neg) return std::nullopt;
      auto v = evalConstInt(*e.operand, env);
      if (!v) return std::nullopt;
      return foldIntArith(BinaryOp::Sub, 0, *v);
    }
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      auto l = evalConstInt(*e.lhs, env);
      auto r = evalConstInt(*e.rhs, env);
      if (!l || !r) return std::nullopt;
      return foldIntArith(e.op, *l, *r);
    }
    default:
      return std::nullopt;
  }
}

std::optional<long long> evalConstInt(const Expr& expr) {
  return evalConstInt(expr, nullptr);
}

std::optional<CanonicalLoop> matchCanonicalLoop(const ForStmt& loop, const ConstEnv* env) {
  CanonicalLoop out;
  // Init: `int var = c` or `var = c`.
  if (!loop.init) return std::nullopt;
  std::optional<long long> start;
  if (loop.init->kind == StmtKind::Decl) {
    const auto& d = static_cast<const DeclStmt&>(*loop.init);
    if (!d.init) return std::nullopt;
    out.var = d.name;
    start = evalConstInt(*d.init, env);
  } else if (loop.init->kind == StmtKind::Assign) {
    const auto& a = static_cast<const AssignStmt&>(*loop.init);
    if (!a.indices.empty()) return std::nullopt;
    out.var = a.target;
    start = evalConstInt(*a.value, env);
  }
  if (!start) return std::nullopt;
  out.start = *start;

  // Step: `var = var (+|-) c` with c != 0.
  if (!loop.step || loop.step->kind != StmtKind::Assign) return std::nullopt;
  const auto& a = static_cast<const AssignStmt&>(*loop.step);
  if (a.target != out.var || !a.indices.empty()) return std::nullopt;
  if (a.value->kind != ExprKind::Binary) return std::nullopt;
  const auto& b = static_cast<const BinaryExpr&>(*a.value);
  if (b.lhs->kind != ExprKind::VarRef || static_cast<const VarRef&>(*b.lhs).name != out.var)
    return std::nullopt;
  const auto c = evalConstInt(*b.rhs, env);
  if (!c || (b.op != BinaryOp::Add && b.op != BinaryOp::Sub)) return std::nullopt;
  if (b.op == BinaryOp::Sub && *c == LLONG_MIN) return std::nullopt;  // -c overflows
  out.step = b.op == BinaryOp::Add ? *c : -*c;
  if (out.step == 0) return std::nullopt;
  return out;
}

std::optional<long long> staticTripCount(const ForStmt& loop, const ConstEnv* env) {
  // `env` maps variables to their values at the loop head on every entry
  // (ir/dataflow.hpp constant propagation). The induction variable itself is
  // never constant across iterations of a nonzero-step loop, so it can never
  // be folded here; every other variable the init/cond/step read is, by the
  // head-environment argument, unchanged between init and head.
  const auto canon = matchCanonicalLoop(loop, env);
  if (!canon || !loop.cond || loop.cond->kind != ExprKind::Binary) return std::nullopt;
  const auto& [var, start, step] = *canon;
  const auto& cond = static_cast<const BinaryExpr&>(*loop.cond);
  if (cond.lhs->kind != ExprKind::VarRef ||
      static_cast<const VarRef&>(*cond.lhs).name != var)
    return std::nullopt;
  auto boundOpt = evalConstInt(*cond.rhs, env);
  if (!boundOpt) return std::nullopt;
  long long bound = *boundOpt;

  // Normalize to `i < bound` / `i > bound` exclusive forms. No int exceeds
  // LLONG_MAX or falls below LLONG_MIN, so those loops have no trip count.
  switch (cond.op) {
    case BinaryOp::Lt: break;
    case BinaryOp::Le:
      if (bound == LLONG_MAX) return std::nullopt;
      bound += 1;
      break;
    case BinaryOp::Gt: break;
    case BinaryOp::Ge:
      if (bound == LLONG_MIN) return std::nullopt;
      bound -= 1;
      break;
    default: return std::nullopt;
  }

  // ceil((to - from) / stride), with the distance taken unsigned so that
  // it cannot overflow; a count past LLONG_MAX is not returned.
  const auto iterations = [](long long from, long long to,
                             unsigned long long stride) -> std::optional<long long> {
    if (from >= to) return 0;
    const unsigned long long distance =
        static_cast<unsigned long long>(to) - static_cast<unsigned long long>(from);
    const unsigned long long n = (distance - 1) / stride + 1;
    if (n > static_cast<unsigned long long>(LLONG_MAX)) return std::nullopt;
    return static_cast<long long>(n);
  };
  if ((cond.op == BinaryOp::Lt || cond.op == BinaryOp::Le)) {
    if (step <= 0) return std::nullopt;  // non-terminating or backwards
    return iterations(start, bound, static_cast<unsigned long long>(step));
  }
  // Decreasing loops: `i > bound` with negative step.
  if (step >= 0) return std::nullopt;
  return iterations(bound, start, 0 - static_cast<unsigned long long>(step));
}

std::optional<long long> staticTripCount(const ForStmt& loop) {
  return staticTripCount(loop, nullptr);
}

}  // namespace hetpar::ir
