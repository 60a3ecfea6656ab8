// Branch-and-bound MILP solver on top of the bounded-variable simplex.
//
// Depth-first search with best-incumbent pruning; branches on the most
// fractional integer variable, exploring the child nearest the LP value
// first. Proves optimality (paper: "solvers guarantee to find the optimal
// solution if one exists and they can determine that they found it") unless
// the node cap `SolveOptions::maxNodes` interrupts it, in which case the best
// incumbent is returned with status Feasible and `SolveStats::hitNodeLimit`
// set. The cap is the only early stop — there is no wall-clock limit — so a
// solve's result depends on the model and the options alone, never on
// machine load.
#pragma once

#include "hetpar/ilp/model.hpp"
#include "hetpar/ilp/simplex.hpp"

namespace hetpar::ilp {

class BranchAndBoundSolver final : public Solver {
 public:
  explicit BranchAndBoundSolver(SolveOptions options = {}) : options_(options) {}

  Solution solve(const Model& model) override;
  const SolveStats& lastStats() const override { return stats_; }

  const SolveOptions& options() const { return options_; }
  void setOptions(const SolveOptions& options) { options_ = options; }

 private:
  SolveOptions options_;
  SolveStats stats_;
};

/// Creates the default solver used across hetpar (mirrors the paper's
/// pluggable lpsolve/CPLEX choice point).
inline BranchAndBoundSolver makeDefaultSolver(SolveOptions options = {}) {
  return BranchAndBoundSolver(options);
}

/// Process-wide LP-engine totals, accumulated atomically by every
/// BranchAndBoundSolver::solve regardless of which thread or subsystem ran
/// it. Drivers report these (hetparc --explain-timings, hetpar-fuzz's
/// "simplex" JSON section) to expose solver behavior without threading
/// statistics through every call chain.
struct SolverTotals {
  long long solves = 0;
  long long bnbNodes = 0;
  long long simplexIterations = 0;
  long long refactorizations = 0;
  long long etaUpdates = 0;
  long long peakFillNonzeros = 0;
  double wallSeconds = 0.0;
};

SolverTotals solverTotals();
void resetSolverTotals();

}  // namespace hetpar::ilp
