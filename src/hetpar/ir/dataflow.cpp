#include "hetpar/ir/dataflow.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <queue>

#include "hetpar/ir/tripcount.hpp"
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
using frontend::ForStmt;
using frontend::Function;
using frontend::IfStmt;
using frontend::IndexExpr;
using frontend::Program;
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

/// Constant evaluation over the Const-entries-only environment. Richer than
/// ir::evalConstInt: comparisons and short-circuit logic fold too, so `if`
/// conditions can select a single branch.
std::optional<long long> cpEval(const Expr& expr, const std::map<std::string, long long>& env) {
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
      if (e.op == UnaryOp::Neg) return foldIntArith(BinaryOp::Sub, 0, *v);
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
        case BinaryOp::Lt: return *l < *r ? 1 : 0;
        case BinaryOp::Le: return *l <= *r ? 1 : 0;
        case BinaryOp::Gt: return *l > *r ? 1 : 0;
        case BinaryOp::Ge: return *l >= *r ? 1 : 0;
        case BinaryOp::Eq: return *l == *r ? 1 : 0;
        case BinaryOp::Ne: return *l != *r ? 1 : 0;
        case BinaryOp::And: return *r != 0 ? 1 : 0;  // lhs already nonzero
        case BinaryOp::Or: return *r != 0 ? 1 : 0;   // lhs already zero
        default: return foldIntArith(e.op, *l, *r);
      }
    }
    default:  // FloatLit, Index, Call: not an integer constant
      return std::nullopt;
  }
}

const Expr* condOf(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::If: return static_cast<const IfStmt&>(stmt).cond.get();
    case StmtKind::For: return static_cast<const ForStmt&>(stmt).cond.get();
    case StmtKind::While: return static_cast<const WhileStmt&>(stmt).cond.get();
    default: return nullptr;
  }
}

enum class Direction { Forward, Backward };

/// Kildall's worklist algorithm, taking pending nodes in reverse postorder.
/// Inputs start at `State{}` (the join's identity) except the boundary
/// node's: the entry going forward, the exit going backward.
/// `transfer(n, input)` gives node n's output; `join(acc, output)` merges it
/// into a neighbour's input and says whether that grew. Returns the inputs
/// at the fixpoint (in-states forward, out-states backward).
template <class Graph, class State, class Transfer, class Join>
std::vector<State> solve(const Graph& cfg, Direction dir, State boundary,
                         const Transfer& transfer, const Join& join) {
  const auto next = [&](int n) -> const std::vector<int>& {
    return dir == Direction::Forward ? cfg.nodes[n].succ : cfg.nodes[n].pred;
  };
  const int count = static_cast<int>(cfg.nodes.size());
  const int start = dir == Direction::Forward ? 0 : count - 1;

  // Postorder by an iterative depth-first search from the boundary node.
  std::vector<int> order;
  std::vector<bool> seen(count);
  std::vector<std::pair<int, std::size_t>> stack{{start, 0}};
  seen[start] = true;
  while (!stack.empty()) {
    const int n = stack.back().first;
    const std::size_t i = stack.back().second++;
    if (i == next(n).size()) {
      order.push_back(n);
      stack.pop_back();
    } else if (const int m = next(n)[i]; !seen[m]) {
      seen[m] = true;
      stack.emplace_back(m, 0);
    }
  }
  HETPAR_CHECK_MSG(static_cast<int>(order.size()) == count, "dataflow node not reachable");
  std::reverse(order.begin(), order.end());
  std::vector<int> rank(count);
  for (int i = 0; i < count; ++i) rank[order[i]] = i;

  std::vector<State> input(count);
  input[start] = std::move(boundary);
  // Ranks of the pending nodes, lowest first; each is queued at most once.
  std::priority_queue<int, std::vector<int>, std::greater<>> work;
  std::vector<bool> pending(count, true);
  for (int i = 0; i < count; ++i) work.push(i);
  while (!work.empty()) {
    const int n = order[work.top()];
    work.pop();
    pending[rank[n]] = false;
    const State output = transfer(n, input[n]);
    for (const int m : next(n))
      if (join(input[m], output) && !pending[rank[m]]) {
        pending[rank[m]] = true;
        work.push(rank[m]);
      }
  }
  return input;
}

}  // namespace

/// One function lowered to statement-level nodes. nodes[0] is the function's
/// entry and nodes.back() its exit. A loop head's first successor is the
/// loop's exit, so a depth-first search finishes the code after a loop
/// before the loop body, and reverse postorder puts the body first.
struct DataflowAnalysis::Cfg {
  struct Node {
    enum class Kind {
      Stmt,   ///< a simple statement, or a `for` init or step
      Cond,   ///< an if/for/while condition; a loop's head
      Then, Else,  ///< start of an if's then- or else-branch
      Enter,  ///< start of a compound statement (null stmt: the function)
      Exit,   ///< end of a compound statement (null stmt: the function)
    };
    Kind kind;
    const Stmt* stmt;
    int depth;  ///< number of enclosing loops
    std::vector<int> succ, pred;
    LiveSet gen, kill;  ///< liveness: live-in = gen ∪ (live-out − kill)
  };
  using Kind = Node::Kind;

  const Function* fn = nullptr;
  std::vector<Node> nodes;
};

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
  std::vector<Cfg> cfgs;
  for (const auto& fn : program.functions) cfgs.push_back(lower(*fn));

  // Constant propagation first: it needs no section information, and its
  // folded loop-head environments sharpen the section analysis below.
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
  for (const Cfg& cfg : cfgs)
    runConstProp(cfg, cfg.fn == &program.entry() ? globalEnv : ConstEnv{});

  sections_ = std::make_unique<SectionAnalysis>(
      program, sema, [this](const ForStmt& loop) { return constEnvAt(loop); });

  // Keep the actual reads of the upward-exposed uses recorded while lowering
  // (this strips the def/use layer's array pseudo-uses).
  for (auto& [stmt, names] : upward_) {
    const AccessSummary& su = sections_->of(*stmt);
    std::erase_if(names, [&](const std::string& v) { return su.reads.count(v) == 0; });
  }
  for (const Cfg& cfg : cfgs) {
    runLiveness(cfg);
    runReachingDefs(cfg);
  }
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

// --- lowering ---------------------------------------------------------------

DataflowAnalysis::Cfg DataflowAnalysis::lower(const Function& fn) {
  using Kind = Cfg::Kind;
  Cfg cfg;
  cfg.fn = &fn;
  const auto link = [&](int from, int to) {
    cfg.nodes[from].succ.push_back(to);
    cfg.nodes[to].pred.push_back(from);
  };
  // Appends a node reached from `pred` (none when negative).
  const auto add = [&](Kind kind, const Stmt* stmt, int depth, int pred) {
    cfg.nodes.push_back(Cfg::Node{kind, stmt, depth, {}, {}, {}, {}});
    const int n = static_cast<int>(cfg.nodes.size()) - 1;
    if (pred >= 0) link(pred, n);
    return n;
  };

  // A statement's liveness summary, live-before = gen ∪ (live-after − kill),
  // composes from the gen/kill sets of its Stmt and Cond nodes. Its gen set
  // is the statement's upward-exposed uses: its live-before on an empty exit.
  struct Summary {
    LiveSet gen, kill;
  };
  const auto append = [](Summary& first, const Summary& next) {
    for (const auto& v : next.gen)
      if (first.kill.count(v) == 0) first.gen.insert(v);
    first.kill.insert(next.kill.begin(), next.kill.end());
  };
  // Appends a Stmt or Cond node with its gen/kill sets; `sum` gets a copy.
  const auto addUse = [&](Kind kind, const Stmt& stmt, int depth, int pred, Summary& sum) {
    const int n = add(kind, &stmt, depth, pred);
    Cfg::Node& node = cfg.nodes[n];
    if (kind == Kind::Cond) {
      if (const Expr* cond = condOf(stmt)) liveExprUses(*cond, node.gen);
    } else {
      const DefUse& du = defuse_.of(stmt);
      node.gen.insert(du.uses.begin(), du.uses.end());
      if (stmt.kind == StmtKind::Decl) {
        // The declaration rebinds the name to fresh storage: the value
        // visible under this name before it cannot be read through it.
        const auto& s = static_cast<const DeclStmt&>(stmt);
        if (!ambiguousName(&fn, s.name)) node.kill.insert(s.name);
      } else if (stmt.kind == StmtKind::Assign) {
        const auto& s = static_cast<const AssignStmt&>(stmt);
        if (ambiguousName(&fn, s.target)) {  // kills on shadowed names are suppressed
        } else if (s.indices.empty()) {
          node.kill.insert(s.target);  // a scalar store overwrites the whole object
        } else if (testTreatPartialArrayWritesAsKills()) {
          // Fault injection: pretend the element write kills the array and
          // has no upward-exposed read of it. Unsound by construction.
          node.kill.insert(s.target);
          node.gen.erase(s.target);
        }
      }
    }
    sum = Summary{node.gen, node.kill};
    return n;
  };

  // Each lowering returns the node control leaves the statement from.
  std::function<int(const Stmt&, int, int, Summary&)> lowerStmt;
  const auto lowerSeq = [&](const std::vector<StmtPtr>& stmts, int pred, int depth,
                            Summary& sum) {
    for (const auto& s : stmts) {
      Summary one;
      pred = lowerStmt(*s, pred, depth, one);
      append(sum, one);
    }
    return pred;
  };
  lowerStmt = [&](const Stmt& stmt, int pred, int depth, Summary& sum) {
    int last = -1;
    switch (stmt.kind) {
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        const int cond = addUse(Kind::Cond, stmt, depth, add(Kind::Enter, &stmt, depth, pred), sum);
        Summary t, e;
        last = add(Kind::Exit, &stmt, depth,
                   lowerSeq(s.thenBody, add(Kind::Then, &stmt, depth, cond), depth, t));
        link(lowerSeq(s.elseBody, add(Kind::Else, &stmt, depth, cond), depth, e), last);
        sum.gen.insert(t.gen.begin(), t.gen.end());
        sum.gen.insert(e.gen.begin(), e.gen.end());
        std::set_intersection(t.kill.begin(), t.kill.end(), e.kill.begin(), e.kill.end(),
                              std::inserter(sum.kill, sum.kill.end()));
        break;
      }
      case StmtKind::For:
      case StmtKind::While: {
        // Enter → [init] → head ⇄ body → [step] → head → Exit. The head gets
        // its Exit before the body, so the exit is its first successor.
        auto loop = stmt.kind == StmtKind::For ? static_cast<const ForStmt*>(&stmt) : nullptr;
        Summary init, body;
        int entry = add(Kind::Enter, &stmt, depth, pred);
        if (loop && loop->init) entry = lowerStmt(*loop->init, entry, depth, init);
        const int head = addUse(Kind::Cond, stmt, depth + 1, entry, sum);
        last = add(Kind::Exit, &stmt, depth, head);
        const auto& stmts = loop ? loop->body : static_cast<const WhileStmt&>(stmt).body;
        int latch = lowerSeq(stmts, head, depth + 1, body);
        if (loop && loop->step) {
          Summary step;
          latch = lowerStmt(*loop->step, latch, depth + 1, step);
          append(body, step);
        }
        link(latch, head);
        sum.gen.insert(body.gen.begin(), body.gen.end());  // a loop kills nothing
        append(init, sum);
        sum = std::move(init);
        break;
      }
      case StmtKind::Block: {
        const auto& s = static_cast<const BlockStmt&>(stmt);
        last = add(Kind::Exit, &stmt, depth,
                   lowerSeq(s.body, add(Kind::Enter, &stmt, depth, pred), depth, sum));
        break;
      }
      default:
        last = addUse(Kind::Stmt, stmt, depth, pred, sum);
        break;
    }
    upward_[&stmt] = sum.gen;
    return last;
  };
  Summary body;
  add(Kind::Exit, nullptr, 0, lowerSeq(fn.body, add(Kind::Enter, nullptr, 0, -1), 0, body));
  return cfg;
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

void DataflowAnalysis::runLiveness(const Cfg& cfg) {
  const Function& fn = *cfg.fn;
  LiveSet exitLive;
  if (&fn != &program_.entry()) {
    // Callers (and code after the call) may read any global or anything
    // reachable through an array parameter; scalar parameters are by-value
    // copies that die with the frame.
    for (const auto& [g, type] : sema_.globals) exitLive.insert(g);
    for (const auto& p : fn.params)
      if (p.type.isArray()) exitLive.insert(p.name);
  }

  const auto transfer = [&](int n, const LiveSet& out) {
    const Cfg::Node& node = cfg.nodes[n];
    LiveSet in = out;
    for (const auto& v : node.kill) in.erase(v);
    in.insert(node.gen.begin(), node.gen.end());
    // Affine section kill, sound only at loop depth 0: inside a loop the
    // summary is widened over the iteration space, not one execution. A
    // compound statement's kill sits on its Enter node, off any back edge.
    const bool starts = node.kind == Cfg::Kind::Stmt || node.kind == Cfg::Kind::Enter;
    if (node.depth != 0 || !starts || node.stmt == nullptr) return in;
    const AccessSummary& su = sections_->of(*node.stmt);
    for (const auto& [v, w] : su.writes) {
      const Type* type = sema_.lookup(&fn, v);
      if (w.mustCover() && su.reads.count(v) == 0 && !ambiguousName(&fn, v) &&
          type != nullptr && SectionAnalysis::covers(w, ArraySection{}, *type))
        in.erase(v);
    }
    return in;
  };
  const auto join = [](LiveSet& acc, const LiveSet& in) {
    const std::size_t before = acc.size();
    acc.insert(in.begin(), in.end());
    return acc.size() != before;
  };
  std::vector<LiveSet> liveOut =
      solve(cfg, Direction::Backward, std::move(exitLive), transfer, join);

  // A compound statement ends at its Exit node, a simple one at its own.
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    const Cfg::Node& node = cfg.nodes[i];
    if (node.stmt != nullptr && (node.kind == Cfg::Kind::Stmt || node.kind == Cfg::Kind::Exit))
      liveAfter_[node.stmt] = std::move(liveOut[i]);
  }
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

void DataflowAnalysis::runConstProp(const Cfg& cfg, ConstEnv entry) {
  using Kind = Cfg::Kind;
  using State = std::optional<ConstEnv>;  // nullopt: not reached
  const auto transfer = [&](int n, const State& in) -> State {
    const Cfg::Node& node = cfg.nodes[n];
    if (!in) return in;
    ConstEnv env = *in;
    if (node.kind == Kind::Cond) {
      if (const Expr* cond = condOf(*node.stmt)) cpKillExprCallWrites(*cond, env);
    } else if (node.kind == Kind::Then || node.kind == Kind::Else) {
      // The branch a folded condition rules out is not reached.
      const auto c = cpEval(*static_cast<const IfStmt&>(*node.stmt).cond, env);
      if (c && (*c != 0) != (node.kind == Kind::Then)) return std::nullopt;
    } else if (node.kind == Kind::Stmt) {
      // Kill everything the statement may write (callee effects included),
      // then re-establish the direct target: the store happens last.
      for (const auto& d : defuse_.of(*node.stmt).defs) env.erase(d);
      const Expr* value = nullptr;
      const std::string* target = nullptr;
      if (node.stmt->kind == StmtKind::Decl) {
        const auto& s = static_cast<const DeclStmt&>(*node.stmt);
        env.erase(s.name);  // no-init declarations have no def entry
        value = s.init.get();
        target = &s.name;
      } else if (node.stmt->kind == StmtKind::Assign) {
        const auto& s = static_cast<const AssignStmt&>(*node.stmt);
        if (s.indices.empty()) value = s.value.get();
        target = &s.target;
      }
      if (value != nullptr && isTrackedInt(cfg.fn, *target))
        if (const auto v = cpEval(*value, env)) env[*target] = *v;
    }
    return env;
  };
  // Intersection with equal values: entries only ever drop to NAC.
  const auto join = [](State& acc, const State& in) {
    if (!in) return false;
    if (!acc) {
      acc = in;
      return true;
    }
    return std::erase_if(*acc, [&](const auto& entry) {
      const auto it = in->find(entry.first);
      return it == in->end() || it->second != entry.second;
    }) != 0;
  };
  const std::vector<State> in =
      solve(cfg, Direction::Forward, State(std::move(entry)), transfer, join);

  // A loop's environment is its head's state once the condition's call
  // writes are killed; a loop that is never reached gets none.
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    const Cfg::Node& node = cfg.nodes[i];
    if (node.kind != Kind::Cond || node.stmt->kind != StmtKind::For) continue;
    const State head = transfer(static_cast<int>(i), in[i]);
    if (head && !head->empty())
      constEnv_[static_cast<const ForStmt*>(node.stmt)] = *head;
  }
}

// --- reaching definitions / diagnostics -------------------------------------

void DataflowAnalysis::runReachingDefs(const Cfg& cfg) {
  const Function& fn = *cfg.fn;
  const auto isScalar = [&](const std::string& name) {
    const Type* t = sema_.lookup(&fn, name);
    return t != nullptr && t->dims.empty();
  };
  // Definition sites: nodes that store a scalar directly (the dead-store
  // candidates) and scalar declarations without a value (uninitialized
  // sites). Callee may-writes neither kill nor register: they are not
  // dead-store candidates and cannot un-initialize anything.
  const std::size_t count = cfg.nodes.size();
  std::vector<const std::string*> siteVar(count, nullptr);
  std::vector<bool> uninitSite(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Stmt* stmt = cfg.nodes[i].stmt;
    if (cfg.nodes[i].kind != Cfg::Kind::Stmt) continue;
    if (stmt->kind == StmtKind::Decl) {
      const auto& s = static_cast<const DeclStmt&>(*stmt);
      if (!isScalar(s.name)) continue;
      siteVar[i] = &s.name;
      uninitSite[i] = s.init == nullptr;
    } else if (stmt->kind == StmtKind::Assign) {
      const auto& s = static_cast<const AssignStmt&>(*stmt);
      if (s.indices.empty() && isScalar(s.target) && !ambiguousName(&fn, s.target))
        siteVar[i] = &s.target;
    }
  }

  // A state is a bit set over the nodes: bit n when site n may reach the
  // point. A site kills every site of its variable.
  using Sites = std::vector<std::uint64_t>;
  const std::size_t words = (count + 63) / 64;
  const auto bit = [](std::size_t n) { return std::uint64_t{1} << (n % 64); };
  std::map<std::string, Sites> sitesOf;
  for (std::size_t i = 0; i < count; ++i)
    if (siteVar[i] != nullptr)
      sitesOf.try_emplace(*siteVar[i], words).first->second[i / 64] |= bit(i);
  std::vector<const Sites*> killOf(count, nullptr);
  for (std::size_t i = 0; i < count; ++i)
    if (siteVar[i] != nullptr) killOf[i] = &sitesOf.at(*siteVar[i]);
  const auto transfer = [&](int n, Sites out) {
    out.resize(words);
    if (killOf[n] == nullptr) return out;
    for (std::size_t w = 0; w < words; ++w) out[w] &= ~(*killOf[n])[w];
    out[n / 64] |= bit(n);
    return out;
  };
  const auto join = [&](Sites& acc, const Sites& in) {
    acc.resize(words);
    bool grew = false;
    for (std::size_t w = 0; w < words; ++w) {
      grew = grew || (in[w] & ~acc[w]) != 0;
      acc[w] |= in[w];
    }
    return grew;
  };
  const std::vector<Sites> in = solve(cfg, Direction::Forward, Sites(words), transfer, join);

  // Every use marks the sites of its variable that reach it. States only
  // grow while the solver runs, so the fixpoint's in-states see every mark.
  std::vector<bool> used(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Cfg::Node& node = cfg.nodes[i];
    if (node.kind != Cfg::Kind::Cond && node.kind != Cfg::Kind::Stmt) continue;
    const LiveSet& uses = node.kind == Cfg::Kind::Cond ? node.gen : defuse_.of(*node.stmt).uses;
    for (const auto& v : uses) {
      const auto sites = sitesOf.find(v);
      if (sites == sitesOf.end()) continue;
      bool uninit = false;
      for (std::size_t w = 0; w < words; ++w)
        for (std::uint64_t m = in[i][w] & sites->second[w]; m != 0; m &= m - 1) {
          const std::size_t s = w * 64 + std::countr_zero(m);
          used[s] = true;
          uninit = uninit || uninitSite[s];
        }
      if (uninit)
        diagnostics_.push_back(FlowDiagnostic{FlowDiagnostic::Kind::UninitializedRead, fn.name,
                                              v, node.stmt->loc});
    }
  }
  // Non-main exits publish globals to the caller; main's exit is the end of
  // the program, so a final global store really is dead.
  if (&fn != &program_.entry()) {
    for (std::size_t s = 0; s < count; ++s)
      if (siteVar[s] != nullptr && (in[count - 1][s / 64] & bit(s)) != 0 &&
          sema_.globals.count(*siteVar[s]) != 0 && !ambiguousName(&fn, *siteVar[s]))
        used[s] = true;
  }
  for (std::size_t i = 0; i < count; ++i)
    if (siteVar[i] != nullptr && !uninitSite[i] && !used[i])
      diagnostics_.push_back(FlowDiagnostic{FlowDiagnostic::Kind::DeadStore, fn.name,
                                            *siteVar[i], cfg.nodes[i].stmt->loc});
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
