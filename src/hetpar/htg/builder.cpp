#include "hetpar/htg/builder.hpp"

#include <algorithm>

#include "hetpar/frontend/printer.hpp"
#include "hetpar/ir/looppar.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::htg {

using namespace frontend;

namespace {

/// True when the statement is a whole-statement call to a user function
/// (`f(...)` or `x = f(...)`); returns the call expression.
const CallExpr* wholeStatementCall(const Stmt& stmt) {
  const Expr* e = nullptr;
  if (stmt.kind == StmtKind::Expr) e = static_cast<const ExprStmt&>(stmt).expr.get();
  else if (stmt.kind == StmtKind::Assign) e = static_cast<const AssignStmt&>(stmt).value.get();
  if (e == nullptr || e->kind != ExprKind::Call) return nullptr;
  const auto& call = static_cast<const CallExpr&>(*e);
  return call.builtin != Builtin::None ? nullptr : &call;
}

class Builder {
 public:
  explicit Builder(const BuildInputs& in) : in_(in) {}

  Graph build() {
    const Function& main = in_.program.entry();
    Node root;
    root.kind = NodeKind::Root;
    root.scope = &main;
    root.execCount = 1.0;
    root.label = "main";
    const NodeId rootId = graph_.addNode(std::move(root));
    graph_.setRoot(rootId);

    std::vector<const Stmt*> stmts;
    for (const auto& s : main.body) stmts.push_back(s.get());
    buildRegion(rootId, stmts, &main, 1.0);
    return std::move(graph_);
  }

 private:
  /// Absolute profiled ops of the statement subtree (inclusive of calls,
  /// which the profiler attributes to call-site statements).
  double absSubtreeOps(const Stmt& stmt) const {
    double total = 0.0;
    forEachStmt(const_cast<Stmt&>(stmt), [&](Stmt& s) {
      total += in_.profile.of(s.id).ops;
    });
    return total;
  }

  /// Per-kind version of absSubtreeOps.
  cost::OpMix absSubtreeMix(const Stmt& stmt) const {
    cost::OpMix total;
    forEachStmt(const_cast<Stmt&>(stmt), [&](Stmt& s) {
      total += in_.profile.of(s.id).mix;
    });
    // forEachStmt visits nested statements; ops of statements *below* a
    // simple statement do not exist, and hierarchical headers plus children
    // partition the work, so the plain sum is the inclusive total. The one
    // exception is the attribution overlap between a call-site statement and
    // statements under `if`/loops *inside the callee* — those live in the
    // callee's body, outside this subtree, so no double counting occurs.
    return total;
  }

  double execOf(const Stmt& stmt) const {
    return static_cast<double>(in_.profile.of(stmt.id).execCount);
  }

  /// Builds the node for one statement; returns its id.
  NodeId buildStmtNode(const Stmt& stmt, const Function* scope, double execScale) {
    const double exec = execOf(stmt) * execScale;

    if (stmt.kind == StmtKind::For || stmt.kind == StmtKind::While) {
      const auto children = childStatements(const_cast<Stmt&>(stmt));
      if (!children.empty() && exec > 0) return buildLoopNode(stmt, scope, execScale);
    }
    if (const CallExpr* call = wholeStatementCall(stmt)) {
      const Function* callee = call->function;
      HETPAR_CHECK(callee != nullptr);
      const double share = in_.profile.callShare(stmt.id, call->callee);
      if (!callee->body.empty() && share > 0 && exec > 0)
        return buildCallNode(stmt, *callee, execScale, share);
    }
    if (stmt.kind == StmtKind::Block) {
      const auto children = childStatements(const_cast<Stmt&>(stmt));
      if (!children.empty()) {
        Node n;
        n.kind = NodeKind::Block;
        n.stmt = &stmt;
        n.scope = scope;
        n.execCount = exec;
        n.opsPerExec = 0.0;
        n.label = "block";
        const NodeId id = graph_.addNode(std::move(n));
        std::vector<const Stmt*> stmts(children.begin(), children.end());
        buildRegion(id, stmts, scope, execScale);
        return id;
      }
    }

    // Leaf (Simple Node): inclusive cost.
    Node n;
    n.kind = NodeKind::Simple;
    n.stmt = &stmt;
    n.scope = scope;
    n.execCount = exec;
    if (execOf(stmt) > 0) {
      n.opsPerExec = absSubtreeOps(stmt) / execOf(stmt);
      n.mixPerExec = absSubtreeMix(stmt) * (1.0 / execOf(stmt));
    }
    n.label = leafLabel(stmt);
    return graph_.addNode(std::move(n));
  }

  NodeId buildLoopNode(const Stmt& stmt, const Function* scope, double execScale) {
    Node n;
    n.kind = NodeKind::Loop;
    n.stmt = &stmt;
    n.scope = scope;
    n.execCount = execOf(stmt) * execScale;
    n.opsPerExec = in_.profile.of(stmt.id).opsPerExec();  // loop-control header
    n.mixPerExec = in_.profile.of(stmt.id).mixPerExec();
    n.label = stmt.kind == StmtKind::For ? "for" : "while";

    if (stmt.kind == StmtKind::For) {
      const ir::LoopParallelism lp =
          ir::analyzeLoop(static_cast<const ForStmt&>(stmt), in_.defuse, scope);
      n.doall = lp.isDoall;
      n.reductionVars = lp.reductions;
      n.doallReason = lp.reason;
    } else {
      n.doallReason = "while loops have unknown iteration spaces";
    }

    const NodeId id = graph_.addNode(std::move(n));
    const auto children = childStatements(const_cast<Stmt&>(stmt));
    std::vector<const Stmt*> stmts(children.begin(), children.end());
    buildRegion(id, stmts, scope, execScale);

    // Iterations per execution: the most frequently executed direct child
    // runs once per iteration.
    Node& loopNode = graph_.node(id);
    double maxChildExec = 0.0;
    for (NodeId c : loopNode.children)
      maxChildExec = std::max(maxChildExec, graph_.node(c).execCount);
    loopNode.iterationsPerExec =
        loopNode.execCount > 0 ? std::max(1.0, maxChildExec / loopNode.execCount) : 1.0;
    return id;
  }

  NodeId buildCallNode(const Stmt& stmt, const Function& callee, double execScale,
                       double share) {
    Node n;
    n.kind = NodeKind::Call;
    n.stmt = &stmt;
    n.scope = &callee;  // children live in the callee's scope
    n.execCount = execOf(stmt) * execScale;
    n.label = "call " + callee.name;

    const NodeId id = graph_.addNode(std::move(n));
    std::vector<const Stmt*> stmts;
    for (const auto& s : callee.body) stmts.push_back(s.get());
    // Children execution counts: profile totals are aggregated over all call
    // sites; this subtree owns `share` of them.
    buildRegion(id, stmts, &callee, execScale * share);

    // Header cost: the call-site statement's inclusive cost minus the work
    // performed by the callee body per call.
    Node& callNode = graph_.node(id);
    cost::OpMix calleeWork;
    for (NodeId c : callNode.children) {
      const Node& child = graph_.node(c);
      if (callNode.execCount > 0)
        calleeWork += graph_.subtreeMixPerExec(c) * (child.execCount / callNode.execCount);
    }
    const cost::OpMix inclusive =
        execOf(stmt) > 0 ? absSubtreeMix(stmt) * (1.0 / execOf(stmt)) : cost::OpMix{};
    callNode.mixPerExec = inclusive.minusClamped(calleeWork);
    callNode.opsPerExec = callNode.mixPerExec.total();
    return id;
  }

  /// Creates children + comm nodes + edges for a hierarchical node.
  void buildRegion(NodeId parentId, const std::vector<const Stmt*>& stmts,
                   const Function* scope, double execScale) {
    std::vector<NodeId> childIds;
    childIds.reserve(stmts.size());
    for (const Stmt* s : stmts) {
      const NodeId c = buildStmtNode(*s, scope, execScale);
      graph_.node(c).parent = parentId;
      childIds.push_back(c);
    }

    const double parentExec = graph_.node(parentId).execCount;
    Node commIn;
    commIn.kind = NodeKind::CommIn;
    commIn.scope = scope;
    commIn.parent = parentId;
    commIn.execCount = parentExec;
    commIn.label = "comm-in";
    const NodeId commInId = graph_.addNode(std::move(commIn));
    Node commOut;
    commOut.kind = NodeKind::CommOut;
    commOut.scope = scope;
    commOut.parent = parentId;
    commOut.execCount = parentExec;
    commOut.label = "comm-out";
    const NodeId commOutId = graph_.addNode(std::move(commOut));

    Node& parent = graph_.node(parentId);
    parent.children = childIds;
    parent.commIn = commInId;
    parent.commOut = commOutId;

    // Dependences among siblings.
    for (const ir::DepEdge& d :
         ir::computeSiblingDeps(stmts, in_.defuse, scope, in_.dependence)) {
      Edge e;
      e.from = childIds[static_cast<std::size_t>(d.from)];
      e.to = childIds[static_cast<std::size_t>(d.to)];
      e.kind = d.kind;
      e.bytes = d.bytes;
      e.vars = d.vars;
      parent.edges.push_back(std::move(e));
    }
    // Boundary flows through the comm nodes.
    const ir::RegionFlow flow =
        ir::computeRegionFlow(stmts, in_.defuse, scope, in_.dependence);
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      long long inBytes = 0;
      std::vector<std::string> inVars;
      for (const auto& [v, b] : flow.inbound[i]) {
        inBytes += b;
        inVars.push_back(v);
      }
      if (!inVars.empty()) {
        Edge e;
        e.from = commInId;
        e.to = childIds[i];
        e.kind = ir::DepKind::Flow;
        e.bytes = inBytes;
        e.vars = std::move(inVars);
        parent.edges.push_back(std::move(e));
      }
      long long outBytes = 0;
      std::vector<std::string> outVars;
      for (const auto& [v, b] : flow.outbound[i]) {
        outBytes += b;
        outVars.push_back(v);
      }
      if (!outVars.empty()) {
        Edge e;
        e.from = childIds[i];
        e.to = commOutId;
        e.kind = ir::DepKind::Flow;
        e.bytes = outBytes;
        e.vars = std::move(outVars);
        parent.edges.push_back(std::move(e));
      }
    }
  }

  static std::string leafLabel(const Stmt& stmt) {
    std::string text = printStmt(stmt);
    // First line, trimmed, capped.
    if (auto nl = text.find('\n'); nl != std::string::npos) text.resize(nl);
    std::string trimmed{hetpar::strings::trim(text)};
    if (trimmed.size() > 40) {
      trimmed.resize(37);
      trimmed += "...";
    }
    return trimmed;
  }

  const BuildInputs& in_;
  Graph graph_;
};

}  // namespace

Graph buildGraph(const BuildInputs& in) { return Builder(in).build(); }

}  // namespace hetpar::htg
