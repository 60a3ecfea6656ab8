// Branch-and-bound MILP solver on top of the bounded-variable simplex.
//
// Depth-first search with best-incumbent pruning; branches on the most
// fractional integer variable, exploring the child nearest the LP value
// first. Proves optimality (paper: "solvers guarantee to find the optimal
// solution if one exists and they can determine that they found it") unless
// the node cap `SolveOptions::maxNodes` interrupts it, in which case the best
// incumbent is returned with status Feasible and `SolveStats::unproven` set
// (so is a solve that had to drop a fully-fixed node the LP engine gave up
// on). The cap is the only early stop — there is no wall-clock limit — so a
// solve's result depends on the model and the options alone, never on
// machine load. Statistics stay with the solver (`lastStats()`); callers
// that report them sum them per run (parallel::IlpStatistics).
#pragma once

#include "hetpar/ilp/model.hpp"
#include "hetpar/ilp/simplex.hpp"

namespace hetpar::ilp {

class BranchAndBoundSolver {
 public:
  /// `makeFactor` makes the LP engine's basis representation: the
  /// production sparse LU, or in tests the dense reference (BoundedSimplex).
  explicit BranchAndBoundSolver(SolveOptions options = {},
                                BasisFactorFactory makeFactor = makeSparseLuFactor)
      : options_(options), makeFactor_(makeFactor) {}

  Solution solve(const Model& model);
  const SolveStats& lastStats() const { return stats_; }

 private:
  SolveOptions options_;
  BasisFactorFactory makeFactor_;
  SolveStats stats_;
};

}  // namespace hetpar::ilp
