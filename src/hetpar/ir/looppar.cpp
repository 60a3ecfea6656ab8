#include "hetpar/ir/looppar.hpp"

#include <map>
#include <vector>

#include "hetpar/ir/tripcount.hpp"
#include "hetpar/support/error.hpp"

namespace hetpar::ir {

using namespace frontend;

namespace {

/// One variable access in body order.
struct Access {
  std::string name;
  bool isWrite = false;
  bool isElement = false;                 ///< through a subscript
  const std::vector<ExprPtr>* indices = nullptr;  ///< valid when isElement
  bool conditional = false;               ///< under an if or nested loop
};

struct Collector {
  std::vector<Access> accesses;
  std::set<std::string> declaredInBody;  ///< fresh per iteration -> private
  bool sawUnsafeCall = false;
  const DefUseAnalysis* du = nullptr;

  void expr(const Expr& e, bool conditional) {
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::FloatLit:
        break;
      case ExprKind::VarRef:
        accesses.push_back({static_cast<const VarRef&>(e).name, false, false, nullptr,
                            conditional});
        break;
      case ExprKind::Index: {
        const auto& x = static_cast<const IndexExpr&>(e);
        for (const auto& i : x.indices) expr(*i, conditional);
        accesses.push_back({x.name, false, true, &x.indices, conditional});
        break;
      }
      case ExprKind::Unary:
        expr(*static_cast<const UnaryExpr&>(e).operand, conditional);
        break;
      case ExprKind::Binary: {
        const auto& x = static_cast<const BinaryExpr&>(e);
        expr(*x.lhs, conditional);
        expr(*x.rhs, conditional);
        break;
      }
      case ExprKind::Call: {
        const auto& x = static_cast<const CallExpr&>(e);
        for (const auto& a : x.args) expr(*a, conditional);
        if (x.builtin == Builtin::None) {
          // A user call is unsafe for iteration splitting if it writes
          // through array parameters or touches globals at all (conservative).
          const Function* callee = x.function;
          HETPAR_CHECK(callee != nullptr);
          const FunctionEffects& fx = du->effects(*callee);
          bool writes = !fx.globalsWritten.empty();
          for (bool w : fx.paramWritten) writes = writes || w;
          if (writes) sawUnsafeCall = true;
        }
        break;
      }
    }
  }

  void stmt(const Stmt& s, bool conditional) {
    switch (s.kind) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        if (d.init) expr(*d.init, conditional);
        accesses.push_back({d.name, true, false, nullptr, conditional});
        declaredInBody.insert(d.name);
        break;
      }
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        for (const auto& i : a.indices) expr(*i, conditional);
        expr(*a.value, conditional);
        accesses.push_back({a.target, true, !a.indices.empty(), &a.indices, conditional});
        break;
      }
      case StmtKind::If: {
        const auto& x = static_cast<const IfStmt&>(s);
        expr(*x.cond, conditional);
        for (const auto& c : x.thenBody) stmt(*c, true);
        for (const auto& c : x.elseBody) stmt(*c, true);
        break;
      }
      case StmtKind::For: {
        const auto& x = static_cast<const ForStmt&>(s);
        if (x.init) stmt(*x.init, conditional);
        if (x.cond) expr(*x.cond, conditional);
        if (x.step) stmt(*x.step, true);
        for (const auto& c : x.body) stmt(*c, true);
        break;
      }
      case StmtKind::While: {
        const auto& x = static_cast<const WhileStmt&>(s);
        expr(*x.cond, conditional);
        for (const auto& c : x.body) stmt(*c, true);
        break;
      }
      case StmtKind::Return: {
        const auto& x = static_cast<const ReturnStmt&>(s);
        if (x.value) expr(*x.value, conditional);
        break;
      }
      case StmtKind::Expr:
        expr(*static_cast<const ExprStmt&>(s).expr, conditional);
        break;
      case StmtKind::Block:
        for (const auto& c : static_cast<const BlockStmt&>(s).body) stmt(*c, conditional);
        break;
    }
  }
};

bool indexIsExactly(const Expr& e, const std::string& var) {
  return e.kind == ExprKind::VarRef && static_cast<const VarRef&>(e).name == var;
}

/// True if every assignment to `name` in the body is `name = name OP e`
/// with a consistent associative OP, and `name` appears nowhere else.
bool isReduction(const std::string& name, const std::vector<const Stmt*>& bodyStmts) {
  int assignments = 0;
  bool otherUse = false;

  std::function<void(const Expr&, bool)> scanExpr = [&](const Expr& e, bool isReductionRhsTop) {
    switch (e.kind) {
      case ExprKind::VarRef:
        if (static_cast<const VarRef&>(e).name == name && !isReductionRhsTop) otherUse = true;
        break;
      case ExprKind::Index: {
        const auto& x = static_cast<const IndexExpr&>(e);
        if (x.name == name) otherUse = true;
        for (const auto& i : x.indices) scanExpr(*i, false);
        break;
      }
      case ExprKind::Unary:
        scanExpr(*static_cast<const UnaryExpr&>(e).operand, false);
        break;
      case ExprKind::Binary: {
        const auto& x = static_cast<const BinaryExpr&>(e);
        scanExpr(*x.lhs, false);
        scanExpr(*x.rhs, false);
        break;
      }
      case ExprKind::Call:
        for (const auto& a : static_cast<const CallExpr&>(e).args) scanExpr(*a, false);
        break;
      default:
        break;
    }
  };

  std::function<void(const Stmt&)> scanStmt = [&](const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        if (a.target == name && a.indices.empty()) {
          // Must be `name = name (+|-|*) rhs` or `name = rhs + name` etc.
          ++assignments;
          bool ok = false;
          if (a.value->kind == ExprKind::Binary) {
            const auto& b = static_cast<const BinaryExpr&>(*a.value);
            const bool assoc = b.op == BinaryOp::Add || b.op == BinaryOp::Sub ||
                               b.op == BinaryOp::Mul;
            if (assoc && indexIsExactly(*b.lhs, name)) {
              ok = true;
              scanExpr(*b.rhs, false);
            } else if ((b.op == BinaryOp::Add || b.op == BinaryOp::Mul) &&
                       indexIsExactly(*b.rhs, name)) {
              ok = true;
              scanExpr(*b.lhs, false);
            }
          }
          if (!ok) otherUse = true;  // unrecognized update form
          return;
        }
        for (const auto& i : a.indices) scanExpr(*i, false);
        scanExpr(*a.value, false);
        break;
      }
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        if (d.init) scanExpr(*d.init, false);
        break;
      }
      case StmtKind::If: {
        const auto& x = static_cast<const IfStmt&>(s);
        scanExpr(*x.cond, false);
        for (const auto& c : x.thenBody) scanStmt(*c);
        for (const auto& c : x.elseBody) scanStmt(*c);
        break;
      }
      case StmtKind::For: {
        const auto& x = static_cast<const ForStmt&>(s);
        if (x.init) scanStmt(*x.init);
        if (x.cond) scanExpr(*x.cond, false);
        if (x.step) scanStmt(*x.step);
        for (const auto& c : x.body) scanStmt(*c);
        break;
      }
      case StmtKind::While: {
        const auto& x = static_cast<const WhileStmt&>(s);
        scanExpr(*x.cond, false);
        for (const auto& c : x.body) scanStmt(*c);
        break;
      }
      case StmtKind::Return: {
        const auto& x = static_cast<const ReturnStmt&>(s);
        if (x.value) scanExpr(*x.value, false);
        break;
      }
      case StmtKind::Expr:
        scanExpr(*static_cast<const ExprStmt&>(s).expr, false);
        break;
      case StmtKind::Block:
        for (const auto& c : static_cast<const BlockStmt&>(s).body) scanStmt(*c);
        break;
    }
  };

  for (const Stmt* s : bodyStmts) scanStmt(*s);
  return assignments > 0 && !otherUse;
}

}  // namespace

LoopParallelism analyzeLoop(const ForStmt& loop, const DefUseAnalysis& du,
                            const frontend::Function* fn) {
  (void)fn;
  LoopParallelism result;

  // Canonical counted loop with unit step.
  std::string iv;
  if (loop.init) {
    if (loop.init->kind == StmtKind::Decl) iv = static_cast<const DeclStmt&>(*loop.init).name;
    else if (loop.init->kind == StmtKind::Assign)
      iv = static_cast<const AssignStmt&>(*loop.init).target;
  }
  if (iv.empty()) {
    result.reason = "no induction variable";
    return result;
  }
  if (!staticTripCount(loop)) {
    // Not constant-bounded; chunking still works with profiled trip counts,
    // but we require the canonical step form.
  }
  if (!loop.step || loop.step->kind != StmtKind::Assign) {
    result.reason = "no canonical step";
    return result;
  }
  {
    const auto& st = static_cast<const AssignStmt&>(*loop.step);
    if (st.target != iv) {
      result.reason = "step does not update induction variable";
      return result;
    }
    bool unit = false;
    if (st.value->kind == ExprKind::Binary) {
      const auto& b = static_cast<const BinaryExpr&>(*st.value);
      if ((b.op == BinaryOp::Add || b.op == BinaryOp::Sub) && indexIsExactly(*b.lhs, iv) &&
          b.rhs->kind == ExprKind::IntLit &&
          std::llabs(static_cast<const IntLit&>(*b.rhs).value) == 1)
        unit = true;
    }
    if (!unit) {
      result.reason = "non-unit step";
      return result;
    }
  }

  // Gather all accesses in the body.
  Collector col;
  col.du = &du;
  std::vector<const Stmt*> bodyStmts;
  for (const auto& s : loop.body) bodyStmts.push_back(s.get());
  for (const Stmt* s : bodyStmts) col.stmt(*s, false);
  if (col.sawUnsafeCall) {
    result.reason = "body calls a function with side effects";
    return result;
  }

  // Classify written names.
  std::map<std::string, bool> writtenIsArrayElem;  // name -> always element-wise
  for (const Access& a : col.accesses) {
    if (!a.isWrite) continue;
    auto [it, inserted] = writtenIsArrayElem.emplace(a.name, a.isElement);
    if (!inserted) it->second = it->second && a.isElement;
  }

  // Whole-object writes (scalar or full-array, e.g. via calls) are handled
  // by the scalar rules; calls writing arrays appear as whole-object writes
  // in def/use and therefore fail the element-wise requirement below.
  for (const auto& [name, elementWise] : writtenIsArrayElem) {
    if (name == iv) {
      result.reason = "body writes the induction variable";
      return result;
    }
    if (elementWise) {
      // Array: every access must subscript the distributed dimension with
      // exactly the induction variable, consistently.
      int requiredDim = -1;
      for (const Access& a : col.accesses) {
        if (a.name != name || !a.isElement) continue;
        int dim = -1;
        for (std::size_t d = 0; d < a.indices->size(); ++d) {
          if (indexIsExactly(*(*a.indices)[d], iv)) {
            dim = static_cast<int>(d);
            break;
          }
        }
        if (dim < 0) {
          result.reason = "array '" + name + "' accessed without induction subscript";
          return result;
        }
        if (requiredDim < 0) requiredDim = dim;
        if (requiredDim != dim) {
          result.reason = "array '" + name + "' distributed dimension is inconsistent";
          return result;
        }
      }
      // Bare (whole-object) uses of a written array, e.g. passing it to a
      // function, defeat the disjointness argument.
      for (const Access& a : col.accesses) {
        if (a.name == name && !a.isElement) {
          result.reason = "array '" + name + "' used as a whole object";
          return result;
        }
      }
    } else {
      // Scalar (or whole-object) write: reduction or privatizable?
      // Variables declared inside the body are fresh every iteration and
      // therefore private by construction (sema's alpha-renaming guarantees
      // the name is unique to this scope).
      if (col.declaredInBody.count(name) > 0) {
        result.privatizable.insert(name);
        continue;
      }
      if (isReduction(name, bodyStmts)) {
        result.reductions.insert(name);
        continue;
      }
      // Privatizable: first access in body order is an unconditional write.
      bool classified = false;
      for (const Access& a : col.accesses) {
        if (a.name != name) continue;
        if (a.isWrite && !a.conditional) {
          result.privatizable.insert(name);
        } else {
          result.reason = "scalar '" + name + "' carried across iterations";
          return result;
        }
        classified = true;
        break;
      }
      if (!classified) {
        result.reason = "scalar '" + name + "' write not found";
        return result;
      }
    }
  }

  result.isDoall = true;
  return result;
}

}  // namespace hetpar::ir
