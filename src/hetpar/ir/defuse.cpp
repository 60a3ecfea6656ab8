#include "hetpar/ir/defuse.hpp"

#include "hetpar/support/error.hpp"

namespace hetpar::ir {

using frontend::AssignStmt;
using frontend::BinaryExpr;
using frontend::BlockStmt;
using frontend::CallExpr;
using frontend::DeclStmt;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprStmt;
using frontend::ForStmt;
using frontend::Function;
using frontend::IfStmt;
using frontend::IndexExpr;
using frontend::Program;
using frontend::ReturnStmt;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::UnaryExpr;
using frontend::VarRef;
using frontend::WhileStmt;

DefUseAnalysis::DefUseAnalysis(const Program& program, const frontend::SemaResult& sema)
    : program_(program), sema_(sema) {
  // Callees before callers so call-site resolution finds summaries ready.
  for (const Function* fn : sema.bottomUpOrder) {
    effects_.emplace(fn, computeEffects(*fn));
    for (const auto& s : fn->body) analyzeStmt(*s, fn);
  }
  for (const auto& g : program.globals) analyzeStmt(*g, nullptr);
}

const DefUse& DefUseAnalysis::of(const Stmt& stmt) const {
  auto it = perStmt_.find(&stmt);
  HETPAR_CHECK_MSG(it != perStmt_.end(), "statement was not analyzed");
  return it->second;
}

const FunctionEffects& DefUseAnalysis::effects(const Function& fn) const {
  auto it = effects_.find(&fn);
  HETPAR_CHECK_MSG(it != effects_.end(), "function was not analyzed");
  return it->second;
}

long long DefUseAnalysis::byteSizeOf(const Function* fn, const std::string& name) const {
  const frontend::Type* t = sema_.lookup(fn, name);
  return t == nullptr ? 0 : t->byteSize();
}

void DefUseAnalysis::collectExprUses(const Expr& expr, const Function* fn, DefUse& du) {
  switch (expr.kind) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
      break;
    case ExprKind::VarRef:
      du.uses.insert(static_cast<const VarRef&>(expr).name);
      break;
    case ExprKind::Index: {
      const auto& e = static_cast<const IndexExpr&>(expr);
      du.uses.insert(e.name);
      for (const auto& i : e.indices) collectExprUses(*i, fn, du);
      break;
    }
    case ExprKind::Unary:
      collectExprUses(*static_cast<const UnaryExpr&>(expr).operand, fn, du);
      break;
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      collectExprUses(*e.lhs, fn, du);
      collectExprUses(*e.rhs, fn, du);
      break;
    }
    case ExprKind::Call: {
      const auto& e = static_cast<const CallExpr&>(expr);
      if (e.builtin != frontend::Builtin::None) {
        for (const auto& a : e.args) collectExprUses(*a, fn, du);
        break;
      }
      const Function* callee = e.function;
      HETPAR_CHECK(callee != nullptr);
      const FunctionEffects& fx = effects(*callee);
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        const Expr& arg = *e.args[i];
        if (callee->params[i].type.isArray()) {
          const auto& ref = static_cast<const VarRef&>(arg);
          if (fx.paramRead[i]) du.uses.insert(ref.name);
          if (fx.paramWritten[i]) du.defs.insert(ref.name);
        } else {
          collectExprUses(arg, fn, du);
        }
      }
      for (const auto& g : fx.globalsRead) du.uses.insert(g);
      for (const auto& g : fx.globalsWritten) du.defs.insert(g);
      break;
    }
  }
}

DefUse DefUseAnalysis::analyzeStmt(const Stmt& stmt, const Function* fn) {
  DefUse du;
  switch (stmt.kind) {
    case StmtKind::Decl: {
      const auto& s = static_cast<const DeclStmt&>(stmt);
      if (s.init) {
        collectExprUses(*s.init, fn, du);
        du.defs.insert(s.name);
      }
      // Uninitialized declarations produce no values: recording a def here
      // would manufacture bogus flow edges (full-array payloads) from the
      // declaration to the first real writer.
      break;
    }
    case StmtKind::Assign: {
      const auto& s = static_cast<const AssignStmt&>(stmt);
      for (const auto& i : s.indices) collectExprUses(*i, fn, du);
      collectExprUses(*s.value, fn, du);
      du.defs.insert(s.target);
      // A partial (element) write both reads and writes the array object.
      if (!s.indices.empty()) du.uses.insert(s.target);
      break;
    }
    case StmtKind::If: {
      const auto& s = static_cast<const IfStmt&>(stmt);
      collectExprUses(*s.cond, fn, du);
      for (const auto& c : s.thenBody) {
        const DefUse child = analyzeStmt(*c, fn);
        du.defs.insert(child.defs.begin(), child.defs.end());
        du.uses.insert(child.uses.begin(), child.uses.end());
      }
      for (const auto& c : s.elseBody) {
        const DefUse child = analyzeStmt(*c, fn);
        du.defs.insert(child.defs.begin(), child.defs.end());
        du.uses.insert(child.uses.begin(), child.uses.end());
      }
      break;
    }
    case StmtKind::For: {
      const auto& s = static_cast<const ForStmt&>(stmt);
      if (s.init) {
        const DefUse child = analyzeStmt(*s.init, fn);
        du.defs.insert(child.defs.begin(), child.defs.end());
        du.uses.insert(child.uses.begin(), child.uses.end());
      }
      if (s.cond) collectExprUses(*s.cond, fn, du);
      if (s.step) {
        const DefUse child = analyzeStmt(*s.step, fn);
        du.defs.insert(child.defs.begin(), child.defs.end());
        du.uses.insert(child.uses.begin(), child.uses.end());
      }
      for (const auto& c : s.body) {
        const DefUse child = analyzeStmt(*c, fn);
        du.defs.insert(child.defs.begin(), child.defs.end());
        du.uses.insert(child.uses.begin(), child.uses.end());
      }
      break;
    }
    case StmtKind::While: {
      const auto& s = static_cast<const WhileStmt&>(stmt);
      collectExprUses(*s.cond, fn, du);
      for (const auto& c : s.body) {
        const DefUse child = analyzeStmt(*c, fn);
        du.defs.insert(child.defs.begin(), child.defs.end());
        du.uses.insert(child.uses.begin(), child.uses.end());
      }
      break;
    }
    case StmtKind::Return: {
      const auto& s = static_cast<const ReturnStmt&>(stmt);
      if (s.value) collectExprUses(*s.value, fn, du);
      break;
    }
    case StmtKind::Expr: {
      const auto& s = static_cast<const ExprStmt&>(stmt);
      collectExprUses(*s.expr, fn, du);
      break;
    }
    case StmtKind::Block: {
      const auto& s = static_cast<const BlockStmt&>(stmt);
      for (const auto& c : s.body) {
        const DefUse child = analyzeStmt(*c, fn);
        du.defs.insert(child.defs.begin(), child.defs.end());
        du.uses.insert(child.uses.begin(), child.uses.end());
      }
      break;
    }
  }
  perStmt_.emplace(&stmt, du);
  return du;
}

FunctionEffects DefUseAnalysis::computeEffects(const Function& fn) {
  // Aggregate the function body's def/use, then project onto parameters
  // and globals.
  DefUse all;
  for (const auto& s : fn.body) {
    const DefUse child = analyzeStmt(*s, &fn);
    all.defs.insert(child.defs.begin(), child.defs.end());
    all.uses.insert(child.uses.begin(), child.uses.end());
  }
  FunctionEffects fx;
  fx.paramRead.resize(fn.params.size(), false);
  fx.paramWritten.resize(fn.params.size(), false);
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    fx.paramRead[i] = all.uses.count(fn.params[i].name) > 0;
    fx.paramWritten[i] = all.defs.count(fn.params[i].name) > 0;
    // Scalar parameters are by-value: a write stays local to the callee.
    if (!fn.params[i].type.isArray()) fx.paramWritten[i] = false;
  }
  auto isParamOrLocal = [&](const std::string& name) {
    for (const auto& p : fn.params)
      if (p.name == name) return true;
    // Locals shadow globals; only names visible as globals and not declared
    // locally count as global effects.
    const frontend::Type* global = nullptr;
    auto git = sema_.globals.find(name);
    if (git != sema_.globals.end()) global = &git->second;
    if (global == nullptr) return true;  // purely local name
    // Declared locally too? Scan the body for a DeclStmt of that name.
    bool declaredLocally = false;
    for (const auto& s : fn.body) {
      frontend::forEachStmt(*s, [&](frontend::Stmt& st) {
        if (st.kind == StmtKind::Decl &&
            static_cast<const DeclStmt&>(st).name == name)
          declaredLocally = true;
      });
      if (declaredLocally) break;
    }
    return declaredLocally;
  };
  for (const auto& name : all.uses)
    if (!isParamOrLocal(name)) fx.globalsRead.insert(name);
  for (const auto& name : all.defs)
    if (!isParamOrLocal(name)) fx.globalsWritten.insert(name);
  return fx;
}

}  // namespace hetpar::ir
