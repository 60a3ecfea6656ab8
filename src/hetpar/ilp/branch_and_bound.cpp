#include "hetpar/ilp/branch_and_bound.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <vector>

#include "hetpar/support/error.hpp"

namespace hetpar::ilp {

namespace {

// A relaxation value this close to an integer counts as integral.
constexpr double kIntegralityTol = 1e-6;

struct BnbNode {
  // Full bound vectors (models are small enough that replaying deltas is
  // not worth the complexity). Their buffers circulate: a child takes over
  // its parent's or a discarded node's.
  std::vector<double> lower;
  std::vector<double> upper;
  double parentBound = 0.0;  // LP bound of the parent, for ordering/pruning
  // Parent's optimal basis (a BasisPool id, -1 for none): warm start for
  // this node's relaxation (one bound differs, so the dual-feasible parent
  // basis re-solves in a few pivots instead of a cold two-phase run).
  int warmBasis = -1;
};

/// The bases of one solve, each shared by the children of the node that
/// produced it. Counted references by id, recycled through a free list, so
/// once the pool covers the search depth a node solve allocates no basis
/// (exporting into a recycled one reuses its vectors).
class BasisPool {
 public:
  /// A cleared (invalid) basis with one reference.
  int acquire() {
    if (free_.empty()) {
      free_.push_back(static_cast<int>(bases_.size()));
      bases_.emplace_back();
      refs_.push_back(0);
    }
    const int id = free_.back();
    free_.pop_back();
    refs_[static_cast<std::size_t>(id)] = 1;
    bases_[static_cast<std::size_t>(id)].basicCols.clear();
    return id;
  }
  int retain(int id) {
    if (id >= 0) ++refs_[static_cast<std::size_t>(id)];
    return id;
  }
  void release(int id) {
    if (id >= 0 && --refs_[static_cast<std::size_t>(id)] == 0) free_.push_back(id);
  }
  /// Valid until the next acquire (which may grow the pool).
  SimplexBasis* get(int id) {
    return id < 0 ? nullptr : &bases_[static_cast<std::size_t>(id)];
  }

 private:
  std::vector<SimplexBasis> bases_;
  std::vector<int> refs_;
  std::vector<int> free_;
};

/// Releases one reference when the node's iteration ends, however it ends.
struct HeldBasis {
  BasisPool& pool;
  int id;
  ~HeldBasis() { pool.release(id); }
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

  BasisPool bases;
  // Bound vectors of discarded nodes, handed to the next down child.
  std::vector<std::vector<double>> spare;
  auto copyOf = [&spare](const std::vector<double>& from) {
    if (spare.empty()) return from;
    std::vector<double> out = std::move(spare.back());
    spare.pop_back();
    out.assign(from.begin(), from.end());
    return out;
  };
  std::vector<BnbNode> stack;
  stack.push_back({rootLower, rootUpper, -kInfinity, -1});
  BnbNode node;

  while (!stack.empty()) {
    if (stats_.nodesExplored >= options_.maxNodes) {
      provenOptimal = false;
      break;
    }
    // The previous node's vectors, unless a child took them over.
    for (std::vector<double>* v : {&node.lower, &node.upper})
      if (v->capacity() > 0) spare.push_back(std::move(*v));
    node = std::move(stack.back());
    stack.pop_back();
    ++stats_.nodesExplored;
    const HeldBasis warm{bases, node.warmBasis};

    if (node.parentBound >= bestInternal - 1e-9) continue;  // pruned by bound

    for (std::size_t i = 0; i < n; ++i) {
      lp.lower[i] = node.lower[i];
      lp.upper[i] = node.upper[i];
    }
    const HeldBasis solved{bases, bases.acquire()};
    LpResult relax = simplex.solve(lp, 0, bases.get(warm.id), bases.get(solved.id));
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
      BnbNode down{copyOf(node.lower), copyOf(node.upper), node.parentBound,
                   bases.retain(warm.id)};
      down.upper[sv] = mid;
      BnbNode up{std::move(node.lower), std::move(node.upper), node.parentBound,
                 bases.retain(warm.id)};
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
    BnbNode down{copyOf(node.lower), copyOf(node.upper), relax.objective, solved.id};
    down.upper[bv] = std::floor(v);
    BnbNode up{std::move(node.lower), std::move(node.upper), relax.objective, solved.id};
    up.lower[bv] = std::ceil(v);

    const bool downFirst = (v - std::floor(v)) < 0.5;
    for (BnbNode* child : downFirst ? std::array{&up, &down} : std::array{&down, &up}) {
      if (child->lower[bv] > child->upper[bv]) {
        spare.push_back(std::move(child->lower));
        spare.push_back(std::move(child->upper));
        continue;
      }
      bases.retain(solved.id);
      stack.push_back(std::move(*child));
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
