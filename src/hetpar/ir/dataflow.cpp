#include "hetpar/ir/dataflow.hpp"

#include <algorithm>
#include <optional>

#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::ir {

using frontend::AssignStmt;
using frontend::BinaryExpr;
using frontend::BinaryOp;
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
using frontend::ScalarType;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::StmtPtr;
using frontend::Type;
using frontend::UnaryExpr;
using frontend::UnaryOp;
using frontend::VarRef;
using frontend::WhileStmt;

std::string flowDiagnosticKindName(FlowDiagnostic::Kind kind) {
  switch (kind) {
    case FlowDiagnostic::Kind::UninitializedRead: return "uninitialized-read";
    case FlowDiagnostic::Kind::DeadStore: return "dead-store";
    case FlowDiagnostic::Kind::WriteOnly: return "write-only";
  }
  return "unknown";
}

std::string flowDiagnosticMessage(const FlowDiagnostic& d) {
  switch (d.kind) {
    case FlowDiagnostic::Kind::UninitializedRead:
      return strings::format("'%s' may be read uninitialized", d.variable.c_str());
    case FlowDiagnostic::Kind::DeadStore:
      return strings::format("value stored to '%s' is never read", d.variable.c_str());
    case FlowDiagnostic::Kind::WriteOnly:
      return strings::format("'%s' is written but never read", d.variable.c_str());
  }
  return "unknown diagnostic";
}

bool& DataflowAnalysis::testTreatPartialArrayWritesAsKills() {
  static bool knob = false;
  return knob;
}

namespace {

/// Constant evaluation over the Const-entries-only environment (absent keys
/// are ⊥/NAC). Richer than ir::evalConstInt: comparisons and short-circuit
/// logic fold too, so `if` conditions can select a single branch.
std::optional<long long> cpEval(const Expr& expr,
                                const std::map<std::string, long long>& env) {
  switch (expr.kind) {
    case ExprKind::IntLit:
      return static_cast<const frontend::IntLit&>(expr).value;
    case ExprKind::VarRef: {
      const auto it = env.find(static_cast<const VarRef&>(expr).name);
      if (it == env.end()) return std::nullopt;
      return it->second;
    }
    case ExprKind::Unary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      const auto v = cpEval(*e.operand, env);
      if (!v) return std::nullopt;
      if (e.op == UnaryOp::Neg) return -*v;
      return *v == 0 ? 1 : 0;  // Not
    }
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      const auto l = cpEval(*e.lhs, env);
      if (!l) return std::nullopt;
      if (e.op == BinaryOp::And && *l == 0) return 0;
      if (e.op == BinaryOp::Or && *l != 0) return 1;
      const auto r = cpEval(*e.rhs, env);
      if (!r) return std::nullopt;
      switch (e.op) {
        case BinaryOp::Add: return *l + *r;
        case BinaryOp::Sub: return *l - *r;
        case BinaryOp::Mul: return *l * *r;
        case BinaryOp::Div:
          return *r == 0 ? std::nullopt : std::optional<long long>(*l / *r);
        case BinaryOp::Mod:
          return *r == 0 ? std::nullopt : std::optional<long long>(*l % *r);
        case BinaryOp::Lt: return *l < *r ? 1 : 0;
        case BinaryOp::Le: return *l <= *r ? 1 : 0;
        case BinaryOp::Gt: return *l > *r ? 1 : 0;
        case BinaryOp::Ge: return *l >= *r ? 1 : 0;
        case BinaryOp::Eq: return *l == *r ? 1 : 0;
        case BinaryOp::Ne: return *l != *r ? 1 : 0;
        case BinaryOp::And: return *r != 0 ? 1 : 0;  // lhs already nonzero
        case BinaryOp::Or: return *r != 0 ? 1 : 0;   // lhs already zero
      }
      return std::nullopt;
    }
    default:  // FloatLit, Index, Call: not an integer constant
      return std::nullopt;
  }
}

/// Intersection with equal values: the lattice join of two Const-only maps.
std::map<std::string, long long> joinEnv(const std::map<std::string, long long>& a,
                                         const std::map<std::string, long long>& b) {
  std::map<std::string, long long> out;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it != b.end() && it->second == v) out.emplace(k, v);
  }
  return out;
}

}  // namespace

DataflowAnalysis::DataflowAnalysis(const Program& program, const frontend::SemaResult& sema,
                                   const DefUseAnalysis& defuse)
    : program_(program), sema_(sema), defuse_(defuse) {
  // Names declared locally (or as parameters) that also exist as globals:
  // the flat name-based sets cannot tell the two objects apart once a callee
  // touches the global, so kills on those names are suppressed.
  for (const auto& fn : program.functions) {
    std::set<std::string>& amb = shadowed_[fn.get()];
    for (const auto& p : fn->params)
      if (sema.globals.count(p.name) != 0) amb.insert(p.name);
    for (const auto& s : fn->body)
      frontend::forEachStmt(*s, [&](Stmt& st) {
        if (st.kind != StmtKind::Decl) return;
        const auto& d = static_cast<const DeclStmt&>(st);
        if (sema.globals.count(d.name) != 0) amb.insert(d.name);
      });
  }

  // Constant propagation first: it needs no section information, and its
  // folded loop-head environments sharpen the section analysis below.
  const Function& mainFn = program.entry();
  ConstEnv globalEnv;
  for (const auto& g : program.globals) {
    const auto& d = static_cast<const DeclStmt&>(*g);
    if (!d.type.dims.empty() || d.type.scalar != ScalarType::Int) continue;
    if (d.init == nullptr) {
      globalEnv[d.name] = 0;  // mini-C zero-initializes globals
    } else if (const auto v = cpEval(*d.init, globalEnv)) {
      globalEnv[d.name] = *v;
    }
  }
  for (const auto& fn : program.functions)
    runConstProp(*fn, fn.get() == &mainFn ? globalEnv : ConstEnv{});

  sections_ = std::make_unique<SectionAnalysis>(
      program, sema, [this](const ForStmt& loop) { return constEnvAt(loop); });

  for (const auto& fn : program.functions) runLiveness(*fn);

  // Upward-exposed uses, precomputed for every statement: a backward walk of
  // the statement alone from the empty set (scalar kills only; the widened
  // sections of a statement nested in outer loops do not describe one region
  // execution, so section kills are disabled here), intersected with the
  // subtree's actual reads to strip the def/use layer's array pseudo-uses.
  for (const auto& fn : program.functions) {
    for (const auto& top : fn->body) {
      frontend::forEachStmt(*top, [&](Stmt& s) {
        LiveSet ue = stmtBefore(s, LiveSet{}, fn.get(), /*record=*/false, /*loopDepth=*/1);
        const AccessSummary& su = sections_->of(s);
        LiveSet kept;
        for (const auto& v : ue)
          if (su.reads.count(v) != 0) kept.insert(v);
        upward_.emplace(&s, std::move(kept));
      });
    }
  }

  for (const auto& fn : program.functions) runReachingDefs(*fn);
  runWriteOnlyScan();
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const FlowDiagnostic& a, const FlowDiagnostic& b) {
                     if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
                     if (a.loc.column != b.loc.column) return a.loc.column < b.loc.column;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.variable < b.variable;
                   });
}

const std::set<std::string>& DataflowAnalysis::liveAfter(const Stmt& stmt) const {
  const auto it = liveAfter_.find(&stmt);
  HETPAR_CHECK_MSG(it != liveAfter_.end(), "statement has no liveness record");
  return it->second;
}

const std::set<std::string>& DataflowAnalysis::upwardExposed(const Stmt& stmt) const {
  const auto it = upward_.find(&stmt);
  HETPAR_CHECK_MSG(it != upward_.end(), "statement has no upward-exposure record");
  return it->second;
}

const std::map<std::string, long long>* DataflowAnalysis::constEnvAt(
    const ForStmt& loop) const {
  const auto it = constEnv_.find(&loop);
  return it == constEnv_.end() ? nullptr : &it->second;
}

bool DataflowAnalysis::ambiguousName(const Function* fn, const std::string& name) const {
  if (fn == nullptr) return true;
  const auto it = shadowed_.find(fn);
  return it != shadowed_.end() && it->second.count(name) != 0;
}

// --- live variables ---------------------------------------------------------

void DataflowAnalysis::liveExprUses(const Expr& expr, LiveSet& out) const {
  switch (expr.kind) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
      break;
    case ExprKind::VarRef:
      out.insert(static_cast<const VarRef&>(expr).name);
      break;
    case ExprKind::Index: {
      const auto& e = static_cast<const IndexExpr&>(expr);
      out.insert(e.name);
      for (const auto& i : e.indices) liveExprUses(*i, out);
      break;
    }
    case ExprKind::Unary:
      liveExprUses(*static_cast<const UnaryExpr&>(expr).operand, out);
      break;
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      liveExprUses(*e.lhs, out);
      liveExprUses(*e.rhs, out);
      break;
    }
    case ExprKind::Call: {
      const auto& e = static_cast<const CallExpr&>(expr);
      if (e.builtin != frontend::Builtin::None) {
        for (const auto& a : e.args) liveExprUses(*a, out);
        break;
      }
      const Function* callee = e.function;
      HETPAR_CHECK(callee != nullptr);
      const FunctionEffects& fx = defuse_.effects(*callee);
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (callee->params[i].type.isArray()) {
          if (fx.paramRead[i])
            out.insert(static_cast<const VarRef&>(*e.args[i]).name);
        } else {
          liveExprUses(*e.args[i], out);
        }
      }
      for (const auto& g : fx.globalsRead) out.insert(g);
      break;
    }
  }
}

void DataflowAnalysis::runLiveness(const Function& fn) {
  LiveSet exitLive;
  if (&fn != &program_.entry()) {
    // Callers (and code after the call) may read any global or anything
    // reachable through an array parameter; scalar parameters are by-value
    // copies that die with the frame.
    for (const auto& [g, type] : sema_.globals) exitLive.insert(g);
    for (const auto& p : fn.params)
      if (p.type.isArray()) exitLive.insert(p.name);
  }
  seqBefore(fn.body, std::move(exitLive), &fn, /*record=*/true, /*loopDepth=*/0);
}

DataflowAnalysis::LiveSet DataflowAnalysis::seqBefore(const std::vector<StmtPtr>& stmts,
                                                      LiveSet after, const Function* fn,
                                                      bool record, int loopDepth) {
  LiveSet cur = std::move(after);
  for (std::size_t i = stmts.size(); i-- > 0;) {
    if (record) liveAfter_[stmts[i].get()] = cur;
    cur = stmtBefore(*stmts[i], std::move(cur), fn, record, loopDepth);
  }
  return cur;
}

DataflowAnalysis::LiveSet DataflowAnalysis::stmtBefore(const Stmt& stmt, LiveSet after,
                                                       const Function* fn, bool record,
                                                       int loopDepth) {
  LiveSet result;
  switch (stmt.kind) {
    case StmtKind::Decl: {
      const auto& s = static_cast<const DeclStmt&>(stmt);
      result = std::move(after);
      // The declaration rebinds the name to fresh storage: the value visible
      // under this name before the declaration cannot be read through it.
      if (!ambiguousName(fn, s.name)) result.erase(s.name);
      const DefUse& du = defuse_.of(stmt);
      result.insert(du.uses.begin(), du.uses.end());
      break;
    }
    case StmtKind::Assign: {
      const auto& s = static_cast<const AssignStmt&>(stmt);
      result = std::move(after);
      const DefUse& du = defuse_.of(stmt);
      LiveSet gen(du.uses);
      if (s.indices.empty()) {
        // A scalar store always overwrites the whole object.
        if (!ambiguousName(fn, s.target)) result.erase(s.target);
      } else if (testTreatPartialArrayWritesAsKills() && !ambiguousName(fn, s.target)) {
        // Fault injection: pretend the element write kills the array and has
        // no upward-exposed read of it. Unsound by construction.
        result.erase(s.target);
        gen.erase(s.target);
      }
      result.insert(gen.begin(), gen.end());
      break;
    }
    case StmtKind::If: {
      const auto& s = static_cast<const IfStmt&>(stmt);
      if (s.cond) liveExprUses(*s.cond, result);
      LiveSet t = seqBefore(s.thenBody, after, fn, record, loopDepth);
      LiveSet e = seqBefore(s.elseBody, std::move(after), fn, record, loopDepth);
      result.insert(t.begin(), t.end());
      result.insert(e.begin(), e.end());
      break;
    }
    case StmtKind::For: {
      const auto& s = static_cast<const ForStmt&>(stmt);
      // H: the live set at the loop head (just before each cond check).
      // Union-only transfer over a finite name set, so the iteration from
      // the exit state climbs monotonically to the least fixpoint.
      LiveSet H = after;
      if (s.cond) liveExprUses(*s.cond, H);
      while (true) {
        LiveSet next = after;
        if (s.cond) liveExprUses(*s.cond, next);
        LiveSet bodyAfter =
            s.step ? stmtBefore(*s.step, H, fn, false, loopDepth + 1) : H;
        const LiveSet b = seqBefore(s.body, std::move(bodyAfter), fn, false, loopDepth + 1);
        next.insert(b.begin(), b.end());
        if (next == H) break;
        H = std::move(next);
      }
      if (record) {
        LiveSet bodyAfter;
        if (s.step) {
          liveAfter_[s.step.get()] = H;
          bodyAfter = stmtBefore(*s.step, H, fn, true, loopDepth + 1);
        } else {
          bodyAfter = H;
        }
        seqBefore(s.body, std::move(bodyAfter), fn, true, loopDepth + 1);
      }
      result = H;
      if (s.init) {
        if (record) liveAfter_[s.init.get()] = H;
        result = stmtBefore(*s.init, std::move(result), fn, record, loopDepth);
      }
      break;
    }
    case StmtKind::While: {
      const auto& s = static_cast<const WhileStmt&>(stmt);
      LiveSet H = after;
      liveExprUses(*s.cond, H);
      while (true) {
        LiveSet next = after;
        liveExprUses(*s.cond, next);
        const LiveSet b = seqBefore(s.body, H, fn, false, loopDepth + 1);
        next.insert(b.begin(), b.end());
        if (next == H) break;
        H = std::move(next);
      }
      if (record) seqBefore(s.body, H, fn, true, loopDepth + 1);
      result = std::move(H);
      break;
    }
    case StmtKind::Return:
    case StmtKind::Expr: {
      result = std::move(after);
      const DefUse& du = defuse_.of(stmt);
      result.insert(du.uses.begin(), du.uses.end());
      break;
    }
    case StmtKind::Block: {
      const auto& s = static_cast<const BlockStmt&>(stmt);
      result = seqBefore(s.body, std::move(after), fn, record, loopDepth);
      break;
    }
  }

  // Affine section kill: a write summary that must-covers the whole object,
  // with no read of it anywhere in the subtree, ends the variable's liveness
  // at this statement. Sound only at loop depth 0: inside a loop body the
  // per-statement summary is widened over the enclosing iteration space and
  // does not describe a single execution, so a "covering" sibling may in
  // fact write its elements before the killed value's writer does.
  if (loopDepth == 0 && fn != nullptr) {
    const AccessSummary& su = sections_->of(stmt);
    for (const auto& [v, w] : su.writes) {
      if (!w.mustCover() || su.reads.count(v) != 0) continue;
      if (ambiguousName(fn, v)) continue;
      const Type* type = sema_.lookup(fn, v);
      if (type == nullptr) continue;
      if (!SectionAnalysis::covers(w, ArraySection{}, *type)) continue;
      result.erase(v);
    }
  }
  return result;
}

// --- constant propagation ---------------------------------------------------

bool DataflowAnalysis::isTrackedInt(const Function* fn, const std::string& name) const {
  const Type* t = sema_.lookup(fn, name);
  return t != nullptr && t->dims.empty() && t->scalar == ScalarType::Int;
}

void DataflowAnalysis::cpKillExprCallWrites(const Expr& expr, ConstEnv& env) const {
  switch (expr.kind) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::VarRef:
      break;
    case ExprKind::Index:
      for (const auto& i : static_cast<const IndexExpr&>(expr).indices)
        cpKillExprCallWrites(*i, env);
      break;
    case ExprKind::Unary:
      cpKillExprCallWrites(*static_cast<const UnaryExpr&>(expr).operand, env);
      break;
    case ExprKind::Binary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      cpKillExprCallWrites(*e.lhs, env);
      cpKillExprCallWrites(*e.rhs, env);
      break;
    }
    case ExprKind::Call: {
      const auto& e = static_cast<const CallExpr&>(expr);
      for (const auto& a : e.args) cpKillExprCallWrites(*a, env);
      if (e.builtin != frontend::Builtin::None) break;
      const Function* callee = e.function;
      HETPAR_CHECK(callee != nullptr);
      for (const auto& g : defuse_.effects(*callee).globalsWritten) env.erase(g);
      break;
    }
  }
}

void DataflowAnalysis::runConstProp(const Function& fn, ConstEnv entry) {
  cpSeq(fn.body, std::move(entry), &fn);
}

DataflowAnalysis::ConstEnv DataflowAnalysis::cpSeq(const std::vector<StmtPtr>& stmts,
                                                   ConstEnv env, const Function* fn) {
  for (const auto& s : stmts) env = cpStmt(*s, std::move(env), fn);
  return env;
}

DataflowAnalysis::ConstEnv DataflowAnalysis::cpStmt(const Stmt& stmt, ConstEnv env,
                                                    const Function* fn) {
  switch (stmt.kind) {
    case StmtKind::Decl: {
      const auto& s = static_cast<const DeclStmt&>(stmt);
      for (const auto& d : defuse_.of(stmt).defs) env.erase(d);
      env.erase(s.name);  // no-init declarations have no def entry
      if (s.init && isTrackedInt(fn, s.name))
        if (const auto v = cpEval(*s.init, env)) env[s.name] = *v;
      return env;
    }
    case StmtKind::Assign: {
      const auto& s = static_cast<const AssignStmt&>(stmt);
      // Kill everything the statement may write (callee effects included),
      // then re-establish the direct target: the store happens last.
      for (const auto& d : defuse_.of(stmt).defs) env.erase(d);
      if (s.indices.empty() && isTrackedInt(fn, s.target))
        if (const auto v = cpEval(*s.value, env)) env[s.target] = *v;
      return env;
    }
    case StmtKind::If: {
      const auto& s = static_cast<const IfStmt&>(stmt);
      cpKillExprCallWrites(*s.cond, env);
      if (const auto c = cpEval(*s.cond, env))
        return cpSeq(*c != 0 ? s.thenBody : s.elseBody, std::move(env), fn);
      ConstEnv t = cpSeq(s.thenBody, env, fn);
      ConstEnv e = cpSeq(s.elseBody, std::move(env), fn);
      return joinEnv(t, e);
    }
    case StmtKind::For: {
      const auto& s = static_cast<const ForStmt&>(stmt);
      if (s.init) env = cpStmt(*s.init, std::move(env), fn);
      // H: constants holding at the loop head on every entry — the join of
      // the loop-entry environment and the back-edge environment. Entries
      // only ever drop to NAC, so the descent terminates.
      ConstEnv H = env;
      while (true) {
        ConstEnv headEnv = H;
        if (s.cond) cpKillExprCallWrites(*s.cond, headEnv);
        ConstEnv bodyEnv = cpSeq(s.body, std::move(headEnv), fn);
        if (s.step) bodyEnv = cpStmt(*s.step, std::move(bodyEnv), fn);
        ConstEnv next = joinEnv(env, bodyEnv);
        if (next == H) break;
        H = std::move(next);
      }
      if (s.cond) cpKillExprCallWrites(*s.cond, H);
      if (H.empty())
        constEnv_.erase(&s);
      else
        constEnv_[&s] = H;
      return H;
    }
    case StmtKind::While: {
      const auto& s = static_cast<const WhileStmt&>(stmt);
      ConstEnv H = env;
      while (true) {
        ConstEnv headEnv = H;
        cpKillExprCallWrites(*s.cond, headEnv);
        ConstEnv bodyEnv = cpSeq(s.body, std::move(headEnv), fn);
        ConstEnv next = joinEnv(env, bodyEnv);
        if (next == H) break;
        H = std::move(next);
      }
      cpKillExprCallWrites(*s.cond, H);
      return H;
    }
    case StmtKind::Return:
    case StmtKind::Expr: {
      for (const auto& d : defuse_.of(stmt).defs) env.erase(d);
      return env;
    }
    case StmtKind::Block:
      return cpSeq(static_cast<const BlockStmt&>(stmt).body, std::move(env), fn);
  }
  return env;
}

// --- reaching definitions / diagnostics -------------------------------------

namespace {

/// Per-variable reaching state for the diagnostics client: the direct scalar
/// defs that may reach this point, plus whether an uninitialized declaration
/// may. Callee may-writes neither kill nor register (they are not dead-store
/// candidates and cannot un-initialize anything).
struct DefState {
  bool uninit = false;
  std::set<const Stmt*> defs;

  bool operator==(const DefState& o) const { return uninit == o.uninit && defs == o.defs; }
};
using RDState = std::map<std::string, DefState>;

RDState mergeState(const RDState& a, const RDState& b) {
  RDState out = a;
  for (const auto& [v, st] : b) {
    auto [it, inserted] = out.try_emplace(v, st);
    if (!inserted) {
      it->second.uninit = it->second.uninit || st.uninit;
      it->second.defs.insert(st.defs.begin(), st.defs.end());
    }
  }
  return out;
}

}  // namespace

void DataflowAnalysis::runReachingDefs(const Function& fn) {
  const bool isMain = &fn == &program_.entry();
  std::set<const Stmt*> allDefs;  // direct scalar stores: dead-store candidates
  std::map<const Stmt*, std::string> defVar;
  std::set<const Stmt*> used;
  std::set<std::pair<int, std::string>> uninitReported;

  const auto isScalar = [&](const std::string& name) {
    const Type* t = sema_.lookup(&fn, name);
    return t != nullptr && t->dims.empty();
  };

  const auto markUses = [&](const std::set<std::string>& uses, RDState& st,
                            const Stmt& at) {
    for (const auto& u : uses) {
      if (!isScalar(u)) continue;
      const auto it = st.find(u);
      if (it == st.end()) continue;
      for (const Stmt* d : it->second.defs) used.insert(d);
      if (it->second.uninit && uninitReported.emplace(at.id, u).second)
        diagnostics_.push_back(FlowDiagnostic{FlowDiagnostic::Kind::UninitializedRead,
                                              fn.name, u, at.loc});
    }
  };

  std::function<void(const Stmt&, RDState&)> walk;
  const auto walkSeq = [&](const std::vector<StmtPtr>& stmts, RDState& st) {
    for (const auto& s : stmts) walk(*s, st);
  };

  walk = [&](const Stmt& stmt, RDState& st) {
    switch (stmt.kind) {
      case StmtKind::Decl: {
        const auto& s = static_cast<const DeclStmt&>(stmt);
        if (s.init) {
          markUses(defuse_.of(stmt).uses, st, stmt);
          if (isScalar(s.name)) {
            st[s.name] = DefState{false, {&stmt}};
            allDefs.insert(&stmt);
            defVar[&stmt] = s.name;
          }
        } else if (isScalar(s.name)) {
          st[s.name] = DefState{true, {}};
        }
        break;
      }
      case StmtKind::Assign: {
        const auto& s = static_cast<const AssignStmt&>(stmt);
        markUses(defuse_.of(stmt).uses, st, stmt);
        if (s.indices.empty() && isScalar(s.target) &&
            !ambiguousName(&fn, s.target)) {
          st[s.target] = DefState{false, {&stmt}};
          allDefs.insert(&stmt);
          defVar[&stmt] = s.target;
        }
        break;
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        LiveSet condUses;
        liveExprUses(*s.cond, condUses);
        markUses({condUses.begin(), condUses.end()}, st, stmt);
        RDState t = st;
        RDState e = std::move(st);
        walkSeq(s.thenBody, t);
        walkSeq(s.elseBody, e);
        st = mergeState(t, e);
        break;
      }
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        if (s.init) walk(*s.init, st);
        RDState H = st;
        while (true) {
          RDState body = H;
          if (s.cond) {
            LiveSet condUses;
            liveExprUses(*s.cond, condUses);
            markUses({condUses.begin(), condUses.end()}, body, stmt);
          }
          walkSeq(s.body, body);
          if (s.step) walk(*s.step, body);
          RDState next = mergeState(st, body);
          if (next == H) break;
          H = std::move(next);
        }
        st = std::move(H);
        break;
      }
      case StmtKind::While: {
        const auto& s = static_cast<const WhileStmt&>(stmt);
        RDState H = st;
        while (true) {
          RDState body = H;
          LiveSet condUses;
          liveExprUses(*s.cond, condUses);
          markUses({condUses.begin(), condUses.end()}, body, stmt);
          walkSeq(s.body, body);
          RDState next = mergeState(st, body);
          if (next == H) break;
          H = std::move(next);
        }
        st = std::move(H);
        break;
      }
      case StmtKind::Return:
      case StmtKind::Expr:
        markUses(defuse_.of(stmt).uses, st, stmt);
        break;
      case StmtKind::Block:
        walkSeq(static_cast<const BlockStmt&>(stmt).body, st);
        break;
    }
  };

  RDState st;
  for (const auto& [g, type] : sema_.globals)
    if (type.dims.empty()) st[g] = DefState{false, {}};
  for (const auto& p : fn.params)
    if (p.type.dims.empty()) st[p.name] = DefState{false, {}};
  for (const auto& s : fn.body) walk(*s, st);

  // Non-main exits publish globals to the caller; main's exit is the end of
  // the program, so a final global store really is dead.
  if (!isMain) {
    for (const auto& [v, ds] : st)
      if (sema_.globals.count(v) != 0 && !ambiguousName(&fn, v))
        for (const Stmt* d : ds.defs) used.insert(d);
  }

  for (const Stmt* d : allDefs)
    if (used.count(d) == 0)
      diagnostics_.push_back(
          FlowDiagnostic{FlowDiagnostic::Kind::DeadStore, fn.name, defVar[d], d->loc});
}

void DataflowAnalysis::runWriteOnlyScan() {
  std::set<std::string> shadowedAnywhere;
  for (const auto& [fn, names] : shadowed_)
    shadowedAnywhere.insert(names.begin(), names.end());

  const auto addNames = [](const std::map<std::string, SectionInfo>& m,
                           std::set<std::string>& out) {
    for (const auto& [v, info] : m) out.insert(v);
  };

  std::set<std::string> globalReads, globalWrites;
  for (const auto& g : program_.globals) {
    const AccessSummary& su = sections_->of(*g);
    addNames(su.reads, globalReads);
    addNames(su.writes, globalWrites);
  }

  for (const auto& fn : program_.functions) {
    std::set<std::string> localNames;
    for (const auto& p : fn->params) localNames.insert(p.name);
    std::map<std::string, frontend::SourceLoc> declLoc;
    for (const auto& top : fn->body)
      frontend::forEachStmt(*top, [&](Stmt& s) {
        if (s.kind != StmtKind::Decl) return;
        const auto& d = static_cast<const DeclStmt&>(s);
        localNames.insert(d.name);
        declLoc.try_emplace(d.name, s.loc);
      });

    std::set<std::string> reads, writes;
    for (const auto& top : fn->body) {
      const AccessSummary& su = sections_->of(*top);
      addNames(su.reads, reads);
      addNames(su.writes, writes);
    }
    for (const auto& v : writes) {
      const bool isLocal = localNames.count(v) != 0;
      if (isLocal) {
        // Array parameters escape to the caller; shadowed names are skipped
        // as ambiguous. Everything else written-but-never-read is flagged.
        bool isParam = false;
        for (const auto& p : fn->params) isParam = isParam || p.name == v;
        if (isParam || shadowedAnywhere.count(v) != 0) continue;
        if (reads.count(v) != 0) continue;
        const auto lit = declLoc.find(v);
        diagnostics_.push_back(FlowDiagnostic{
            FlowDiagnostic::Kind::WriteOnly, fn->name, v,
            lit != declLoc.end() ? lit->second : fn->loc});
      } else {
        globalWrites.insert(v);
      }
      if (!isLocal && reads.count(v) != 0) globalReads.insert(v);
    }
    for (const auto& v : reads)
      if (localNames.count(v) == 0) globalReads.insert(v);
  }

  for (const auto& v : globalWrites) {
    if (globalReads.count(v) != 0 || shadowedAnywhere.count(v) != 0) continue;
    frontend::SourceLoc loc;
    for (const auto& g : program_.globals)
      if (static_cast<const DeclStmt&>(*g).name == v) loc = g->loc;
    diagnostics_.push_back(FlowDiagnostic{FlowDiagnostic::Kind::WriteOnly, "", v, loc});
  }
}

}  // namespace hetpar::ir
