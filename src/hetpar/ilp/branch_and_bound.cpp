#include "hetpar/ilp/branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "hetpar/support/error.hpp"

namespace hetpar::ilp {

namespace {

// A relaxation value this close to an integer counts as integral.
constexpr double kIntegralityTol = 1e-6;

struct BnbNode {
  // Full bound vectors (models are small enough that replaying deltas is
  // not worth the complexity).
  std::vector<double> lower;
  std::vector<double> upper;
  double parentBound;  // LP bound of the parent, for ordering/pruning
  // Parent's optimal basis: warm start for this node's relaxation (one
  // bound differs, so the dual-feasible parent basis re-solves in a few
  // pivots instead of a cold two-phase run).
  std::shared_ptr<const SimplexBasis> warmBasis;
};

}  // namespace

Solution BranchAndBoundSolver::solve(const Model& model) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  stats_ = SolveStats{};
  stats_.numVars = model.numVars();
  stats_.numConstraints = model.numConstraints();
  stats_.numIntegerVars = model.numIntegerVars();

  const std::size_t n = model.numVars();
  std::vector<double> rootLower(n), rootUpper(n);
  std::vector<bool> isInt(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const VarInfo& v = model.vars()[i];
    rootLower[i] = v.lowerBound;
    rootUpper[i] = v.upperBound;
    isInt[i] = v.type != VarType::Continuous;
    if (isInt[i]) {
      // Integer variables can have their bounds rounded inward immediately.
      rootLower[i] = std::ceil(rootLower[i] - 1e-9);
      rootUpper[i] = std::floor(rootUpper[i] + 1e-9);
    }
  }

  // Standard form is built once; per-node solves only swap structural bounds.
  StandardForm sf = buildLp(model, rootLower, rootUpper);
  LpProblem& lp = sf.problem;

  BoundedSimplex simplex(1e-9, makeFactor_);

  Solution best;
  best.status = SolveStatus::Infeasible;
  double bestInternal = kInfinity;  // internal objective (always minimized)
  bool provenOptimal = true;
  bool sawUnbounded = false;

  std::vector<BnbNode> stack;
  stack.push_back({rootLower, rootUpper, -kInfinity, nullptr});

  while (!stack.empty()) {
    if (stats_.nodesExplored >= options_.maxNodes) {
      provenOptimal = false;
      break;
    }
    BnbNode node = std::move(stack.back());
    stack.pop_back();
    ++stats_.nodesExplored;

    if (node.parentBound >= bestInternal - 1e-9) continue;  // pruned by bound

    for (std::size_t i = 0; i < n; ++i) {
      lp.lower[i] = node.lower[i];
      lp.upper[i] = node.upper[i];
    }
    auto solvedBasis = std::make_shared<SimplexBasis>();
    LpResult relax =
        simplex.solve(lp, 0, node.warmBasis.get(), solvedBasis.get());
    stats_.simplexIterations += relax.iterations;
    stats_.refactorizations += relax.factorStats.refactorizations;
    stats_.etaUpdates += relax.factorStats.etaUpdates;
    stats_.peakFillNonzeros =
        std::max(stats_.peakFillNonzeros, relax.factorStats.peakFillNonzeros);

    if (relax.status == LpStatus::Infeasible) continue;
    if (relax.status == LpStatus::Unbounded) {
      sawUnbounded = true;
      break;
    }
    if (relax.status != LpStatus::Optimal) {
      // The LP engine gave up on this node. Instead of dropping it (which
      // would forfeit the optimality proof), split on any still-unfixed
      // integer variable: the children are strictly more constrained and
      // eventually become trivial for the LP.
      int splitVar = -1;
      for (std::size_t i = 0; i < n; ++i) {
        if (isInt[i] && node.lower[i] < node.upper[i] - 0.5) {
          splitVar = static_cast<int>(i);
          break;
        }
      }
      if (splitVar < 0) {
        provenOptimal = false;  // counted in SolveStats::unproven
        continue;
      }
      const auto sv = static_cast<std::size_t>(splitVar);
      const double mid = std::floor((node.lower[sv] + node.upper[sv]) / 2.0);
      BnbNode down{node.lower, node.upper, node.parentBound, node.warmBasis};
      down.upper[sv] = mid;
      BnbNode up{std::move(node.lower), std::move(node.upper), node.parentBound,
                 node.warmBasis};
      up.lower[sv] = mid + 1.0;
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
      continue;
    }
    if (relax.objective >= bestInternal - 1e-9) continue;

    // Find the fractional integer variable with the highest branch
    // priority; among equals, the most fractional one (closest to .5).
    int branchVar = -1;
    double branchDist = kInfinity;
    int branchPrio = std::numeric_limits<int>::min();
    for (std::size_t i = 0; i < n; ++i) {
      if (!isInt[i]) continue;
      const double v = relax.x[i];
      const double frac = std::fabs(v - std::round(v));
      if (frac <= kIntegralityTol) continue;
      const int prio = model.vars()[i].branchPriority;
      const double dist = std::fabs(frac - 0.5);
      if (prio > branchPrio || (prio == branchPrio && dist < branchDist)) {
        branchPrio = prio;
        branchDist = dist;
        branchVar = static_cast<int>(i);
      }
    }

    if (branchVar < 0) {
      // Integral: new incumbent.
      if (relax.objective < bestInternal - 1e-9) {
        bestInternal = relax.objective;
        best.values.assign(relax.x.begin(), relax.x.begin() + static_cast<long>(n));
        for (std::size_t i = 0; i < n; ++i)
          if (isInt[i]) best.values[i] = std::round(best.values[i]);
        best.objective = model.evalObjective(best.values);
        best.status = SolveStatus::Optimal;  // finalized below
      }
      continue;
    }

    // Branch: floor child and ceil child; explore the nearer one first
    // (pushed last).
    const auto bv = static_cast<std::size_t>(branchVar);
    const double v = relax.x[bv];
    BnbNode down{node.lower, node.upper, relax.objective, solvedBasis};
    down.upper[bv] = std::floor(v);
    BnbNode up{std::move(node.lower), std::move(node.upper), relax.objective, solvedBasis};
    up.lower[bv] = std::ceil(v);

    const bool downFirst = (v - std::floor(v)) < 0.5;
    if (downFirst) {
      if (up.lower[bv] <= up.upper[bv]) stack.push_back(std::move(up));
      if (down.lower[bv] <= down.upper[bv]) stack.push_back(std::move(down));
    } else {
      if (down.lower[bv] <= down.upper[bv]) stack.push_back(std::move(down));
      if (up.lower[bv] <= up.upper[bv]) stack.push_back(std::move(up));
    }
  }

  stats_.wallSeconds = std::chrono::duration<double>(Clock::now() - start).count();
  stats_.unproven = !provenOptimal;

  if (sawUnbounded) {
    Solution out;
    out.status = SolveStatus::Unbounded;
    return out;
  }
  if (!best.hasValues()) {
    Solution out;
    out.status = provenOptimal ? SolveStatus::Infeasible : SolveStatus::IterationLimit;
    return out;
  }
  best.status = provenOptimal ? SolveStatus::Optimal : SolveStatus::Feasible;
  HETPAR_CHECK_MSG(model.isFeasible(best.values, 1e-5),
                   "bnb produced an infeasible incumbent for model '" + model.name() + "'");
  return best;
}

}  // namespace hetpar::ilp
