// Constructs the Augmented Hierarchical Task Graph from an analyzed and
// profiled mini-C program (paper Section III-A).
#pragma once

#include <concepts>

#include "hetpar/cost/profile.hpp"
#include "hetpar/frontend/sema.hpp"
#include "hetpar/htg/graph.hpp"
#include "hetpar/ir/defuse.hpp"

namespace hetpar::htg {

struct BuildInputs {
  const frontend::Program& program;
  const frontend::SemaResult& sema;
  const ir::DefUseAnalysis& defuse;
  const cost::ProgramProfile& profile;
  /// Dependence mode for region edges and comm payloads. The default
  /// (conservative, name-based) reproduces the historical whole-object
  /// graphs bit for bit; Affine requires `dependence.sections`.
  ir::DependenceOptions dependence;
};

/// Builds the HTG rooted at main()'s body. Whole-statement calls expand into
/// Call subtrees over the callee body (each call site gets its own subtree,
/// with execution counts split by profiled call share); `if` statements stay
/// atomic leaves. Throws hetpar::Error on structural problems.
Graph buildGraph(const BuildInputs& in);

/// The graph plus the analysis artifacts it borrowed (kept alive in the
/// bundle so the graph's pointers stay valid). pipeline::buildFrontend makes
/// one from source. The analyses refer to `program` and `sema` by address,
/// so a bundle is filled where it stands and can be neither copied nor moved
/// (the deleted copy operations suppress the moves).
struct FrontendBundle {
  FrontendBundle() = default;
  /// Runs `fill(*this)`, so a function can return a bundle built in place.
  template <class Fill>
    requires std::invocable<Fill&, FrontendBundle&>
  explicit FrontendBundle(Fill&& fill) {
    fill(*this);
  }
  FrontendBundle(const FrontendBundle&) = delete;
  FrontendBundle& operator=(const FrontendBundle&) = delete;

  frontend::Program program;
  frontend::SemaResult sema;
  std::unique_ptr<ir::DefUseAnalysis> defuse;
  /// Only built in FlowMode::Live (liveness, constprop, diagnostics).
  std::unique_ptr<ir::DataflowAnalysis> dataflow;
  std::unique_ptr<ir::SectionAnalysis> sections;  ///< always built (for dumps)
  cost::ProgramProfile profile;
  Graph graph;
};

}  // namespace hetpar::htg
