// Monotone dataflow framework over the mini-C statements of each function.
//
// Each function is lowered once to a statement-level CFG: one node per simple
// statement, per `for` init and step and per if/for/while condition, plus
// pass-through nodes where a compound statement starts and ends and where an
// if's branches begin. Mini-C has no goto, break or continue; a `return`
// falls through and a loop condition never prunes the body. One Kildall
// worklist solver (reverse postorder) runs the three clients below over that
// graph. A node is revisited only when its input changes, and each visit
// copies one state, so the cost is visits times state size instead of
// doubling per loop level. In a d-deep loop nest a fact dropped at an outer
// head reaches every node inside it, so inner nodes are visited O(d) times;
// constant propagation, whose state holds the d induction variables, is
// cubic in d there. Calls are resolved through the `FunctionEffects`
// summaries (ir/defuse.hpp): a callee's global/array-param reads are uses at
// the call site, its writes *may*-writes (never kills).
//
//   Live variables (backward) — liveAfter(stmt): variables whose value may
//   still be read after `stmt` (at a non-main function's exit every global
//   and array parameter is live, at main's exit nothing is). The htg builder
//   prunes CommOut payloads to live values and CommIn payloads to
//   upward-exposed uses in FlowMode::Live. A write summary that must-covers
//   the whole object (and reads none of it) kills the variable, but only at
//   loop depth 0, where the widened sections describe one execution. Each
//   statement's (gen, kill) summary is composed from its nodes' gen/kill
//   sets while lowering (a loop kills nothing, an if what both branches
//   kill); its gen set is the upward-exposed set.
//
//   Reaching definitions (forward, bit sets over definition sites) — powers
//   `hetparc --diagnose`: possibly-uninitialized reads, dead stores and
//   write-only variables, with source locations.
//
//   Conditional constant propagation (forward, "not reached" or a constant
//   map) — per loop, the integer scalars constant at the head on every entry;
//   an `if` whose condition folds does not reach the branch it rules out.
//   ir/tripcount and ir/affine fold loop bounds through these environments
//   (the section analysis takes them through its ConstEnvFn hook).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hetpar/frontend/ast.hpp"
#include "hetpar/frontend/sema.hpp"
#include "hetpar/ir/defuse.hpp"
#include "hetpar/ir/sections.hpp"

namespace hetpar::ir {

/// How the htg builder books communication payloads. Conservative reproduces
/// the historical behavior bit for bit; Live prunes CommIn/CommOut payloads
/// by liveness (requires a DataflowAnalysis).
enum class FlowMode { Conservative, Live };

/// One lint finding from the reaching-definitions / write-only clients.
struct FlowDiagnostic {
  enum class Kind { UninitializedRead, DeadStore, WriteOnly };
  Kind kind = Kind::UninitializedRead;
  std::string function;  ///< enclosing function; empty for global scope
  std::string variable;
  frontend::SourceLoc loc;
};

/// "uninitialized-read" / "dead-store" / "write-only".
std::string flowDiagnosticKindName(FlowDiagnostic::Kind kind);

/// Human-readable one-line rendering ("'x' may be read uninitialized").
std::string flowDiagnosticMessage(const FlowDiagnostic& d);

class DataflowAnalysis {
 public:
  /// `program` must have been through sema (`analyze`); `defuse` must have
  /// been built for the same program. The constructor runs constant
  /// propagation first, builds an internal SectionAnalysis sharpened by the
  /// folded loop bounds, then runs liveness and the diagnostics clients
  /// against it. All query results are precomputed here.
  DataflowAnalysis(const frontend::Program& program, const frontend::SemaResult& sema,
                   const DefUseAnalysis& defuse);

  /// Variables whose value may be read after `stmt` completes (including by
  /// later loop iterations and, transitively, by code after the enclosing
  /// function returns). `stmt` must belong to a function body.
  const std::set<std::string>& liveAfter(const frontend::Stmt& stmt) const;

  /// Variables with an upward-exposed use in `stmt`'s subtree: their value
  /// on entry to the statement may be read before being overwritten. Always
  /// a subset of the subtree's actual reads (the def/use layer's pseudo-use
  /// of a partially written array is not upward-exposed by itself).
  const std::set<std::string>& upwardExposed(const frontend::Stmt& stmt) const;

  /// Integer scalars provably constant at the loop head on every entry
  /// (suitable for evalConstInt / staticTripCount / ivRangeOf env
  /// parameters); nullptr when nothing is known.
  const std::map<std::string, long long>* constEnvAt(const frontend::ForStmt& loop) const;

  /// Lint findings, sorted by source location. Populated at construction.
  const std::vector<FlowDiagnostic>& diagnostics() const { return diagnostics_; }

  /// The constant-propagation-sharpened section analysis built internally.
  const SectionAnalysis& sections() const { return *sections_; }

  /// Transfers ownership of the internal section analysis (the caller must
  /// keep it alive no longer than this object's other results are used; all
  /// dataflow results are precomputed, so no back-reference survives).
  std::unique_ptr<SectionAnalysis> takeSections() { return std::move(sections_); }

  /// Test-only fault injection: treat partial (element) array writes as full
  /// kills. This is deliberately unsound — the verify harness's
  /// liveness-soundness relation must catch it (falsifiability check).
  static bool& testTreatPartialArrayWritesAsKills();

 private:
  using LiveSet = std::set<std::string>;
  using ConstEnv = std::map<std::string, long long>;
  struct Cfg;  ///< one function's statement-level control-flow graph

  Cfg lower(const frontend::Function& fn);
  void runConstProp(const Cfg& cfg, ConstEnv entry);
  void runLiveness(const Cfg& cfg);
  void runReachingDefs(const Cfg& cfg);
  void runWriteOnlyScan();

  void liveExprUses(const frontend::Expr& expr, LiveSet& out) const;
  bool ambiguousName(const frontend::Function* fn, const std::string& name) const;
  void cpKillExprCallWrites(const frontend::Expr& expr, ConstEnv& env) const;
  bool isTrackedInt(const frontend::Function* fn, const std::string& name) const;

  const frontend::Program& program_;
  const frontend::SemaResult& sema_;
  const DefUseAnalysis& defuse_;
  std::unique_ptr<SectionAnalysis> sections_;

  std::map<const frontend::Stmt*, LiveSet> liveAfter_;
  std::map<const frontend::Stmt*, LiveSet> upward_;
  std::map<const frontend::ForStmt*, ConstEnv> constEnv_;
  /// Names that are a param/local of the function *and* a global: name-based
  /// reasoning cannot tell the two objects apart, so kills are suppressed.
  std::map<const frontend::Function*, std::set<std::string>> shadowed_;
  std::vector<FlowDiagnostic> diagnostics_;
};

}  // namespace hetpar::ir
