#include "hetpar/ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hetpar/ilp/basis_factor.hpp"
#include "hetpar/support/error.hpp"

namespace hetpar::ilp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class ColStatus : std::uint8_t { AtLower, AtUpper, Basic, Free };

/// Full simplex working state. Kept by BoundedSimplex across solves; every
/// solve re-initializes it through `init` or `initFromBasis`, which reuse
/// the arrays' capacity.
struct Tableau {
  int m = 0;            // rows
  int n = 0;            // structural + slack columns (no artificials)
  int total = 0;        // n + m (artificials appended)
  const LpProblem* lp = nullptr;

  // The problem's columns, then one artificial column per row. The first n
  // are copied only when the matrix changes (see `syncMatrix`).
  std::vector<std::vector<std::pair<int, double>>> cols;
  std::vector<double> lower, upper;                       // incl. artificials
  std::vector<double> costPhase2;                         // incl. artificials (0)

  std::vector<ColStatus> status;
  std::vector<double> nonbasicValue;  // value of nonbasic col (bound or 0)
  std::vector<int> basic;             // basic[i] = column basic in row i
  std::vector<int> basicPos;          // basicPos[j] = row if basic else -1
  std::vector<double> xB;             // values of basic variables

  std::unique_ptr<BasisFactor> factor;  // basis representation
  int pricingCursor = 0;                // partial-pricing scan position

  double tol;
  long long iterations = 0;

  /// A row that can block the entering step (ratio test pass 1).
  struct BlockingRow {
    int row;
    bool hitsUpper;
    double absDelta;     // |change of the basic value per unit step|
    double strictLimit;  // step at which it reaches its bound
  };

  // Reused buffers: row residuals, a phase cost vector, the duals and the
  // FTRAN'd entering column, the ratio test's blocking rows, and bound-shift
  // phase 1's bookkeeping.
  std::vector<double> rowScratch;
  std::vector<double> phaseCost;
  std::vector<double> duals, column;
  std::vector<BlockingRow> blocking;
  std::vector<int> violated;
  std::vector<std::pair<int, std::pair<double, double>>> savedBounds;

  /// Makes `cols` hold `problem`'s matrix plus room for the artificial
  /// columns. Returns false when the matrix had to be copied, i.e. it
  /// differs from the previous solve's.
  bool syncMatrix(const LpProblem& problem);
  void init(const LpProblem& problem, double tolerance);
  /// Seeds statuses/basis from `warm` instead of the artificial basis.
  /// Returns false on structural mismatch or a singular basis.
  /// `readyFactor` (optional) supplies a factorization of exactly this
  /// basis, skipping the refactorization.
  bool initFromBasis(const LpProblem& problem, double tolerance, const SimplexBasis& warm,
                     const BasisFactor* readyFactor);
  /// Drives a warm-started (possibly bound-violating) basis to primal
  /// feasibility by temporarily relaxing the violated variables' bounds.
  /// Optimal = feasible now; Infeasible = proven empty; IterationLimit =
  /// could not decide (caller should cold-start).
  LpStatus boundShiftPhase1(long long maxIterations);
  void exportBasis(SimplexBasis& out) const;
  void recomputeBasicValues();
  bool refactorize();  // rebuild the factorization; false if singular
  LpStatus runPhase(const std::vector<double>& cost, long long maxIterations,
                    bool phase1);
  double primalInfeasibility() const;
  void extractSolution(std::vector<double>& x) const;
};

bool Tableau::syncMatrix(const LpProblem& problem) {
  if (problem.numRows == m && problem.numCols == n &&
      std::equal(problem.cols.begin(), problem.cols.end(), cols.begin(), cols.begin() + n))
    return true;
  HETPAR_CHECK(problem.cols.size() == static_cast<std::size_t>(problem.numCols));
  m = problem.numRows;
  n = problem.numCols;
  cols.resize(static_cast<std::size_t>(n + m));
  std::copy(problem.cols.begin(), problem.cols.end(), cols.begin());
  return false;
}

void Tableau::init(const LpProblem& problem, double tolerance) {
  lp = &problem;
  tol = tolerance;
  m = problem.numRows;
  n = problem.numCols;
  total = n + m;
  pricingCursor = 0;
  iterations = 0;
  factor->resetStats();

  lower = problem.lower;
  upper = problem.upper;
  lower.resize(static_cast<std::size_t>(total), 0.0);
  upper.resize(static_cast<std::size_t>(total), kInf);
  costPhase2 = problem.cost;
  costPhase2.resize(static_cast<std::size_t>(total), 0.0);

  status.assign(static_cast<std::size_t>(total), ColStatus::AtLower);
  nonbasicValue.assign(static_cast<std::size_t>(total), 0.0);
  basic.assign(static_cast<std::size_t>(m), -1);
  basicPos.assign(static_cast<std::size_t>(total), -1);
  xB.assign(static_cast<std::size_t>(m), 0.0);

  // Nonbasic structural/slack columns start at their nearest finite bound.
  for (int j = 0; j < n; ++j) {
    if (std::isfinite(lower[j])) {
      status[j] = ColStatus::AtLower;
      nonbasicValue[j] = lower[j];
    } else if (std::isfinite(upper[j])) {
      status[j] = ColStatus::AtUpper;
      nonbasicValue[j] = upper[j];
    } else {
      status[j] = ColStatus::Free;
      nonbasicValue[j] = 0.0;
    }
  }

  // Row residuals with nonbasic columns at their starting values.
  std::vector<double>& residual = rowScratch;
  residual.assign(lp->rhs.begin(), lp->rhs.end());
  for (int j = 0; j < n; ++j) {
    const double v = nonbasicValue[j];
    if (v == 0.0) continue;
    for (const auto& [row, coef] : cols[j]) residual[static_cast<std::size_t>(row)] -= coef * v;
  }

  // One artificial per row, signed so its starting (basic) value is >= 0.
  for (int i = 0; i < m; ++i) {
    const int aj = n + i;
    const double sign = residual[static_cast<std::size_t>(i)] >= 0.0 ? 1.0 : -1.0;
    cols[static_cast<std::size_t>(aj)] = {{i, sign}};
    lower[static_cast<std::size_t>(aj)] = 0.0;
    upper[static_cast<std::size_t>(aj)] = kInf;
    status[static_cast<std::size_t>(aj)] = ColStatus::Basic;
    basic[static_cast<std::size_t>(i)] = aj;
    basicPos[static_cast<std::size_t>(aj)] = i;
    xB[static_cast<std::size_t>(i)] = std::fabs(residual[static_cast<std::size_t>(i)]);
  }
  factor->factorize(cols, basic, m);  // diagonal basis: cannot fail
}

bool Tableau::initFromBasis(const LpProblem& problem, double tolerance,
                            const SimplexBasis& warm, const BasisFactor* readyFactor) {
  lp = &problem;
  tol = tolerance;
  m = problem.numRows;
  n = problem.numCols;
  total = n + m;
  pricingCursor = 0;
  iterations = 0;
  factor->resetStats();
  if (static_cast<int>(warm.basicCols.size()) != m) return false;
  if (static_cast<int>(warm.atUpper.size()) != n) return false;

  lower = problem.lower;
  upper = problem.upper;
  lower.resize(static_cast<std::size_t>(total), 0.0);
  upper.resize(static_cast<std::size_t>(total), 0.0);  // artificials pinned shut
  costPhase2 = problem.cost;
  costPhase2.resize(static_cast<std::size_t>(total), 0.0);

  status.assign(static_cast<std::size_t>(total), ColStatus::AtLower);
  nonbasicValue.assign(static_cast<std::size_t>(total), 0.0);
  basic.assign(static_cast<std::size_t>(m), -1);
  basicPos.assign(static_cast<std::size_t>(total), -1);
  xB.assign(static_cast<std::size_t>(m), 0.0);

  // Artificial columns exist for layout compatibility but stay fixed at 0.
  for (int i = 0; i < m; ++i)
    cols[static_cast<std::size_t>(n + i)] = {{i, 1.0}};

  for (int i = 0; i < m; ++i) {
    const int j = warm.basicCols[static_cast<std::size_t>(i)];
    // Artificial columns (j >= n) may legitimately sit in an optimal basis
    // at value zero; they stay pinned to [0,0] here.
    if (j < 0 || j >= total) return false;
    if (basicPos[static_cast<std::size_t>(j)] != -1) return false;  // duplicate
    basic[static_cast<std::size_t>(i)] = j;
    basicPos[static_cast<std::size_t>(j)] = i;
    status[static_cast<std::size_t>(j)] = ColStatus::Basic;
  }
  for (int j = 0; j < n; ++j) {
    if (status[static_cast<std::size_t>(j)] == ColStatus::Basic) continue;
    const double lo = lower[static_cast<std::size_t>(j)];
    const double hi = upper[static_cast<std::size_t>(j)];
    // Honor the recorded bound when it is finite under the *new* bounds;
    // otherwise snap to the nearest finite bound.
    if (warm.atUpper[static_cast<std::size_t>(j)] && std::isfinite(hi)) {
      status[static_cast<std::size_t>(j)] = ColStatus::AtUpper;
      nonbasicValue[static_cast<std::size_t>(j)] = hi;
    } else if (std::isfinite(lo)) {
      status[static_cast<std::size_t>(j)] = ColStatus::AtLower;
      nonbasicValue[static_cast<std::size_t>(j)] = lo;
    } else if (std::isfinite(hi)) {
      status[static_cast<std::size_t>(j)] = ColStatus::AtUpper;
      nonbasicValue[static_cast<std::size_t>(j)] = hi;
    } else {
      status[static_cast<std::size_t>(j)] = ColStatus::Free;
      nonbasicValue[static_cast<std::size_t>(j)] = 0.0;
    }
  }
  if (readyFactor != nullptr) {
    factor->assign(*readyFactor);
    recomputeBasicValues();
    return true;
  }
  return refactorize();
}

LpStatus Tableau::boundShiftPhase1(long long maxIterations) {
  const double feasTol = 1e-7;
  for (int round = 0; round < 4; ++round) {
    // Collect violated basic variables.
    violated.clear();
    for (int i = 0; i < m; ++i) {
      const int j = basic[static_cast<std::size_t>(i)];
      const double v = xB[static_cast<std::size_t>(i)];
      if (v > upper[static_cast<std::size_t>(j)] + feasTol ||
          v < lower[static_cast<std::size_t>(j)] - feasTol)
        violated.push_back(i);
    }
    if (violated.empty()) return LpStatus::Optimal;

    // Relax each violated variable's offending bound to its current value
    // and push it back with a unit phase-1 cost.
    std::vector<double>& cost = phaseCost;
    cost.assign(static_cast<std::size_t>(total), 0.0);
    savedBounds.clear();
    for (int i : violated) {
      const int j = basic[static_cast<std::size_t>(i)];
      const double v = xB[static_cast<std::size_t>(i)];
      savedBounds.push_back({j, {lower[static_cast<std::size_t>(j)],
                                 upper[static_cast<std::size_t>(j)]}});
      if (v > upper[static_cast<std::size_t>(j)]) {
        upper[static_cast<std::size_t>(j)] = v + 1.0;
        cost[static_cast<std::size_t>(j)] = 1.0;   // minimize downwards
      } else {
        lower[static_cast<std::size_t>(j)] = v - 1.0;
        cost[static_cast<std::size_t>(j)] = -1.0;  // minimize upwards
      }
    }
    const LpStatus st = runPhase(cost, maxIterations, /*phase1=*/true);
    // Restore the true bounds.
    for (const auto& [j, b] : savedBounds) {
      lower[static_cast<std::size_t>(j)] = b.first;
      upper[static_cast<std::size_t>(j)] = b.second;
    }
    if (st != LpStatus::Optimal) return LpStatus::IterationLimit;

    // Infeasibility certificate (single violation only): the phase
    // minimized that variable's excursion over a *superset* of the feasible
    // region; if its optimal value still breaks the bound, no feasible
    // point exists.
    if (violated.size() == 1) {
      const int j = savedBounds[0].first;
      const double v = status[static_cast<std::size_t>(j)] == ColStatus::Basic
                           ? xB[static_cast<std::size_t>(basicPos[static_cast<std::size_t>(j)])]
                           : nonbasicValue[static_cast<std::size_t>(j)];
      if (v > upper[static_cast<std::size_t>(j)] + feasTol ||
          v < lower[static_cast<std::size_t>(j)] - feasTol)
        return LpStatus::Infeasible;
    }

    // Nonbasic variables may now rest on a relaxed (out-of-bounds) value;
    // snap them back and recompute.
    for (int j = 0; j < total; ++j) {
      if (status[static_cast<std::size_t>(j)] == ColStatus::Basic) continue;
      double& v = nonbasicValue[static_cast<std::size_t>(j)];
      const double lo = lower[static_cast<std::size_t>(j)];
      const double hi = upper[static_cast<std::size_t>(j)];
      if (v > hi) {
        v = hi;
        status[static_cast<std::size_t>(j)] = ColStatus::AtUpper;
      } else if (v < lo) {
        v = lo;
        status[static_cast<std::size_t>(j)] = ColStatus::AtLower;
      }
    }
    recomputeBasicValues();
  }
  return LpStatus::IterationLimit;
}

void Tableau::exportBasis(SimplexBasis& out) const {
  out.basicCols.assign(basic.begin(), basic.end());
  out.atUpper.assign(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j)
    if (status[static_cast<std::size_t>(j)] == ColStatus::AtUpper)
      out.atUpper[static_cast<std::size_t>(j)] = 1;
}

void Tableau::recomputeBasicValues() {
  std::vector<double>& rhs = rowScratch;
  rhs.assign(lp->rhs.begin(), lp->rhs.end());
  for (int j = 0; j < total; ++j) {
    if (status[j] == ColStatus::Basic) continue;
    const double v = nonbasicValue[j];
    if (v == 0.0) continue;
    for (const auto& [row, coef] : cols[j]) rhs[static_cast<std::size_t>(row)] -= coef * v;
  }
  factor->ftran(rhs);  // row-indexed residual in, slot-indexed values out
  xB.swap(rhs);
}

bool Tableau::refactorize() {
  if (!factor->factorize(cols, basic, m)) return false;
  recomputeBasicValues();
  return true;
}

double Tableau::primalInfeasibility() const {
  double worst = 0.0;
  for (int i = 0; i < m; ++i) {
    const int j = basic[static_cast<std::size_t>(i)];
    const double v = xB[static_cast<std::size_t>(i)];
    worst = std::max(worst, lower[static_cast<std::size_t>(j)] - v);
    worst = std::max(worst, v - upper[static_cast<std::size_t>(j)]);
  }
  return worst;
}

LpStatus Tableau::runPhase(const std::vector<double>& cost, long long maxIterations,
                           bool phase1) {
  const double dualTol = 1e-7;
  int degenerateStreak = 0;
  bool bland = false;
  bool blandForever = false;
  std::vector<double>& y = duals;
  std::vector<double>& w = column;
  y.assign(static_cast<std::size_t>(m), 0.0);
  w.assign(static_cast<std::size_t>(m), 0.0);

  for (long long iter = 0; iter < maxIterations; ++iter) {
    ++iterations;
    // Hard anti-stall: a phase that has not converged after many pivots is
    // either cycling or zigzagging; Bland's rule guarantees termination.
    if (iter == 4000) {
      blandForever = true;
      bland = true;
      if (!refactorize()) return LpStatus::IterationLimit;
    }

    // Duals: solve B^T y = c_B via BTRAN.
    for (int k = 0; k < m; ++k)
      y[static_cast<std::size_t>(k)] = cost[static_cast<std::size_t>(basic[static_cast<std::size_t>(k)])];
    factor->btran(y);

    // Pricing: pick entering column. Returns the improvement score for
    // column j (0 if not a candidate) and writes the movement direction.
    auto priceColumn = [&](int j, double& dir) -> double {
      const ColStatus st = status[static_cast<std::size_t>(j)];
      if (st == ColStatus::Basic) return 0.0;
      if (lower[static_cast<std::size_t>(j)] == upper[static_cast<std::size_t>(j)]) return 0.0;
      double d = cost[static_cast<std::size_t>(j)];
      for (const auto& [row, coef] : cols[static_cast<std::size_t>(j)])
        d -= y[static_cast<std::size_t>(row)] * coef;
      if ((st == ColStatus::AtLower || st == ColStatus::Free) && d < -dualTol) {
        dir = 1.0;
        return -d;
      }
      if ((st == ColStatus::AtUpper || st == ColStatus::Free) && d > dualTol) {
        dir = -1.0;
        return d;
      }
      return 0.0;
    };

    int entering = -1;
    double enteringDir = 0.0;
    double bestScore = dualTol;
    if (bland) {
      // First improving column by index (termination guarantee needs the
      // lowest index, so no cursor).
      for (int j = 0; j < total; ++j) {
        double dir = 0.0;
        if (priceColumn(j, dir) <= 0.0) continue;
        entering = j;
        enteringDir = dir;
        break;
      }
    } else {
      // Partial pricing: cyclic scan from the cursor; once a candidate is in
      // hand, stop at the block boundary instead of pricing every column.
      // Optimality is only declared after a full wrap finds no candidate.
      const int block = std::max(64, total / 8);
      int j = pricingCursor >= total ? 0 : pricingCursor;
      int scanned = 0;
      for (; scanned < total; ++scanned) {
        double dir = 0.0;
        const double score = priceColumn(j, dir);
        if (score > bestScore) {
          bestScore = score;
          entering = j;
          enteringDir = dir;
        }
        j = (j + 1 == total) ? 0 : j + 1;
        if (entering >= 0 && scanned + 1 >= block) break;
      }
      pricingCursor = j;
    }
    if (entering < 0) {
      // Optimal for this phase; verify numerically and refactor once if the
      // basic values drifted.
      recomputeBasicValues();
      if (primalInfeasibility() > 1e-6) {
        if (!refactorize()) return LpStatus::IterationLimit;
        if (primalInfeasibility() > 1e-6) return LpStatus::IterationLimit;
      }
      return LpStatus::Optimal;
    }

    // FTRAN: w = B^{-1} A_entering.
    factor->ftranColumn(cols[static_cast<std::size_t>(entering)], w);

    // Harris-style two-pass ratio test. Entering moves by t >= 0 in
    // direction enteringDir; basic variable i changes by
    // -enteringDir * w[i] * t. Pass 1 computes the step limit with bounds
    // relaxed by `featol`; pass 2 picks, among rows blocking within that
    // relaxed limit, the numerically best (largest) pivot. This both avoids
    // tiny unstable pivots and breaks degenerate ties, which defeats the
    // classic cycling patterns that exact-tie rules fall into with floating
    // point. Pass 1 also keeps the rows that can block at all (|delta| >
    // pivTol, finite room), so pass 2 scans only those, in row order.
    const double featol = 1e-7;
    const double pivTol = 1e-9;
    double ownRange = upper[static_cast<std::size_t>(entering)] -
                      lower[static_cast<std::size_t>(entering)];
    if (status[static_cast<std::size_t>(entering)] == ColStatus::Free) ownRange = kInf;

    double relaxedLimit = ownRange;
    blocking.clear();
    for (int i = 0; i < m; ++i) {
      const double delta = -enteringDir * w[static_cast<std::size_t>(i)];
      if (std::fabs(delta) <= pivTol) continue;
      const int bj = basic[static_cast<std::size_t>(i)];
      const bool hitsUpper = delta > 0;
      const double room =
          hitsUpper ? upper[static_cast<std::size_t>(bj)] - xB[static_cast<std::size_t>(i)]
                    : xB[static_cast<std::size_t>(i)] - lower[static_cast<std::size_t>(bj)];
      if (!std::isfinite(room)) continue;
      const double absDelta = std::fabs(delta);
      const double limit = (std::max(room, 0.0) + featol) / absDelta;
      relaxedLimit = std::min(relaxedLimit, limit);
      blocking.push_back({i, hitsUpper, absDelta, std::max(room, 0.0) / absDelta});
    }

    int leavingRow = -1;
    bool leavingAtUpper = false;
    double tMax = ownRange;
    if (std::isfinite(relaxedLimit)) {
      double bestPivot = 0.0;
      int bestIndex = -1;
      for (const BlockingRow& b : blocking) {
        if (b.strictLimit > relaxedLimit) continue;
        const int bj = basic[static_cast<std::size_t>(b.row)];
        const bool better = bland ? (bestIndex < 0 || bj < bestIndex) : b.absDelta > bestPivot;
        if (better) {
          bestPivot = b.absDelta;
          bestIndex = bj;
          leavingRow = b.row;
          leavingAtUpper = b.hitsUpper;
          tMax = b.strictLimit;
        }
      }
      // Prefer a full bound flip when the entering variable's own range is
      // within the relaxed limit and shorter than the chosen pivot step.
      if (leavingRow >= 0 && ownRange <= tMax) leavingRow = -1;
      if (leavingRow < 0) tMax = ownRange;
    }

    if (!std::isfinite(tMax)) {
      return phase1 ? LpStatus::IterationLimit  // phase 1 is always bounded
                    : LpStatus::Unbounded;
    }

    if (tMax < 1e-11) {
      if (++degenerateStreak > 64) bland = true;
    } else {
      degenerateStreak = 0;
      if (!blandForever) bland = false;
    }

    // Apply the step to basic values.
    if (tMax > 0.0) {
      for (int i = 0; i < m; ++i)
        xB[static_cast<std::size_t>(i)] += -enteringDir * w[static_cast<std::size_t>(i)] * tMax;
    }

    if (leavingRow < 0) {
      // Bound flip: entering moves to its opposite bound; basis unchanged.
      const auto j = static_cast<std::size_t>(entering);
      if (enteringDir > 0) {
        status[j] = ColStatus::AtUpper;
        nonbasicValue[j] = upper[j];
      } else {
        status[j] = ColStatus::AtLower;
        nonbasicValue[j] = lower[j];
      }
      continue;
    }

    // Pivot: entering becomes basic in leavingRow.
    const double pivot = w[static_cast<std::size_t>(leavingRow)];
    if (std::fabs(pivot) < 1e-9) {
      // Numerically unsafe pivot; rebuild the factors and retry from pricing.
      if (!refactorize()) return LpStatus::IterationLimit;
      continue;
    }

    const int leavingCol = basic[static_cast<std::size_t>(leavingRow)];
    const double enteringValue =
        (status[static_cast<std::size_t>(entering)] == ColStatus::Free
             ? 0.0
             : nonbasicValue[static_cast<std::size_t>(entering)]) +
        enteringDir * tMax;

    status[static_cast<std::size_t>(leavingCol)] =
        leavingAtUpper ? ColStatus::AtUpper : ColStatus::AtLower;
    nonbasicValue[static_cast<std::size_t>(leavingCol)] =
        leavingAtUpper ? upper[static_cast<std::size_t>(leavingCol)]
                       : lower[static_cast<std::size_t>(leavingCol)];
    basicPos[static_cast<std::size_t>(leavingCol)] = -1;

    basic[static_cast<std::size_t>(leavingRow)] = entering;
    basicPos[static_cast<std::size_t>(entering)] = leavingRow;
    status[static_cast<std::size_t>(entering)] = ColStatus::Basic;
    xB[static_cast<std::size_t>(leavingRow)] = enteringValue;

    // Record the basis change in the factorization; if the update is
    // numerically unsafe or the eta file has grown past its trigger,
    // refactorize the (already-updated) basis instead.
    if (!factor->update(leavingRow, w) || factor->wantRefactorize()) {
      if (!refactorize()) return LpStatus::IterationLimit;
    }

    // Periodic hygiene: recompute basic values to cancel drift.
    if ((iterations & 255) == 0) recomputeBasicValues();
  }
  return LpStatus::IterationLimit;
}

void Tableau::extractSolution(std::vector<double>& x) const {
  x.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j)
    if (status[static_cast<std::size_t>(j)] != ColStatus::Basic)
      x[static_cast<std::size_t>(j)] = nonbasicValue[static_cast<std::size_t>(j)];
  for (int i = 0; i < m; ++i) {
    const int j = basic[static_cast<std::size_t>(i)];
    if (j < n) x[static_cast<std::size_t>(j)] = xB[static_cast<std::size_t>(i)];
  }
}

}  // namespace

StandardForm buildLp(const Model& model, const std::vector<double>& lowerOverride,
                     const std::vector<double>& upperOverride) {
  const int numStructural = static_cast<int>(model.numVars());
  HETPAR_CHECK(lowerOverride.size() == model.numVars());
  HETPAR_CHECK(upperOverride.size() == model.numVars());

  StandardForm out;
  out.numStructural = numStructural;
  LpProblem& lp = out.problem;
  lp.numRows = static_cast<int>(model.numConstraints());
  lp.cols.resize(static_cast<std::size_t>(numStructural));
  lp.lower = lowerOverride;
  lp.upper = upperOverride;
  lp.cost.assign(static_cast<std::size_t>(numStructural), 0.0);

  const double sign = model.sense() == Sense::Minimize ? 1.0 : -1.0;
  for (const auto& [idx, coef] : model.objective().terms())
    lp.cost[static_cast<std::size_t>(idx)] = sign * coef;

  lp.rhs.reserve(model.numConstraints());
  int row = 0;
  for (const Constraint& c : model.constraints()) {
    for (const auto& [idx, coef] : c.lhs.terms())
      lp.cols[static_cast<std::size_t>(idx)].emplace_back(row, coef);
    lp.rhs.push_back(c.rhs);
    // Slack column turning the row into an equality:
    //   <=  : lhs + s = rhs with s in [0, inf)
    //   >=  : lhs + s = rhs with s in (-inf, 0]
    //   =   : no slack
    if (c.relation != Relation::Equal) {
      lp.cols.push_back({{row, 1.0}});
      if (c.relation == Relation::LessEqual) {
        lp.lower.push_back(0.0);
        lp.upper.push_back(kInf);
      } else {
        lp.lower.push_back(-kInf);
        lp.upper.push_back(0.0);
      }
      lp.cost.push_back(0.0);
    }
    ++row;
  }
  lp.numCols = static_cast<int>(lp.cols.size());
  return out;
}

struct BoundedSimplex::Workspace {
  Tableau tableau;
  // The retained factor and its basis; `cacheBasic` is empty while there is
  // none for the tableau's current matrix.
  std::vector<int> cacheBasic;
  std::unique_ptr<BasisFactor> cacheFactor;
};

BoundedSimplex::BoundedSimplex(double tol, BasisFactorFactory makeFactor)
    : tol_(tol), makeFactor_(makeFactor), ws_(std::make_unique<Workspace>()) {}
BoundedSimplex::~BoundedSimplex() = default;

LpResult BoundedSimplex::solve(const LpProblem& problem, long long maxIterations,
                               const SimplexBasis* warm, SimplexBasis* basisOut) {
  LpResult result;
  for (int j = 0; j < problem.numCols; ++j) {
    if (problem.lower[static_cast<std::size_t>(j)] >
        problem.upper[static_cast<std::size_t>(j)]) {
      result.status = LpStatus::Infeasible;
      return result;
    }
  }
  if (problem.numRows == 0) {
    // Pure bound problem: each variable sits at its cheapest finite bound.
    result.x.resize(static_cast<std::size_t>(problem.numCols));
    double obj = 0.0;
    for (int j = 0; j < problem.numCols; ++j) {
      const double c = problem.cost[static_cast<std::size_t>(j)];
      const double lo = problem.lower[static_cast<std::size_t>(j)];
      const double hi = problem.upper[static_cast<std::size_t>(j)];
      double v;
      if (c > 0) v = lo;
      else if (c < 0) v = hi;
      else v = std::isfinite(lo) ? lo : (std::isfinite(hi) ? hi : 0.0);
      if (!std::isfinite(v)) {
        result.status = LpStatus::Unbounded;
        return result;
      }
      result.x[static_cast<std::size_t>(j)] = v;
      obj += c * v;
    }
    result.status = LpStatus::Optimal;
    result.objective = obj;
    return result;
  }

  if (maxIterations <= 0)
    maxIterations = 20000 + 200LL * (problem.numRows + problem.numCols);

  Workspace& ws = *ws_;
  Tableau& t = ws.tableau;
  // A new matrix drops the retained factor: it was built from the old one.
  if (!t.syncMatrix(problem)) ws.cacheBasic.clear();
  if (t.factor == nullptr) t.factor = makeFactor_();
  bool warmed = false;
  if (warm != nullptr && warm->valid()) {
    // Factor-cache hit requires the same matrix (checked above) and the
    // same basis columns; equal row counts alone are not enough — reusing a
    // factorization across different matrices silently corrupts the solve.
    const bool cacheHit = !ws.cacheBasic.empty() && ws.cacheBasic == warm->basicCols;
    warmed = t.initFromBasis(problem, tol_, *warm, cacheHit ? ws.cacheFactor.get() : nullptr);
    if (warmed) {
      const LpStatus ph1 = t.boundShiftPhase1(maxIterations);
      if (ph1 == LpStatus::Infeasible) {
        result.status = LpStatus::Infeasible;
        result.iterations = t.iterations;
        result.factorStats = t.factor->stats();
        return result;
      }
      if (ph1 != LpStatus::Optimal) warmed = false;  // cold restart below
    }
  }

  if (!warmed) {
    t.init(problem, tol_);

    // Phase 1: minimize the sum of artificial variables.
    std::vector<double>& phase1Cost = t.phaseCost;
    phase1Cost.assign(static_cast<std::size_t>(t.total), 0.0);
    for (int i = 0; i < t.m; ++i) phase1Cost[static_cast<std::size_t>(t.n + i)] = 1.0;
    LpStatus st = t.runPhase(phase1Cost, maxIterations, /*phase1=*/true);
    if (st != LpStatus::Optimal) {
      result.status = st == LpStatus::Unbounded ? LpStatus::IterationLimit : st;
      result.iterations = t.iterations;
      result.factorStats = t.factor->stats();
      return result;
    }
    double artificialSum = 0.0;
    for (int i = 0; i < t.m; ++i) {
      const int j = t.basic[static_cast<std::size_t>(i)];
      if (j >= t.n) artificialSum += std::fabs(t.xB[static_cast<std::size_t>(i)]);
    }
    for (int j = t.n; j < t.total; ++j) {
      if (t.status[static_cast<std::size_t>(j)] != ColStatus::Basic)
        artificialSum += std::fabs(t.nonbasicValue[static_cast<std::size_t>(j)]);
    }
    if (artificialSum > 1e-6) {
      result.status = LpStatus::Infeasible;
      result.iterations = t.iterations;
      result.factorStats = t.factor->stats();
      return result;
    }

    // Pin artificials to zero for phase 2.
    for (int j = t.n; j < t.total; ++j) {
      t.upper[static_cast<std::size_t>(j)] = 0.0;
      if (t.status[static_cast<std::size_t>(j)] != ColStatus::Basic) {
        t.status[static_cast<std::size_t>(j)] = ColStatus::AtLower;
        t.nonbasicValue[static_cast<std::size_t>(j)] = 0.0;
      }
    }
    t.recomputeBasicValues();
  }

  // Phase 2: optimize the real objective.
  LpStatus st = t.runPhase(t.costPhase2, maxIterations, /*phase1=*/false);
  result.iterations = t.iterations;
  result.factorStats = t.factor->stats();
  if (st != LpStatus::Optimal) {
    result.status = st;
    return result;
  }
  if (basisOut != nullptr) t.exportBasis(*basisOut);
  // Retain the final factorization so the next warm start on this basis
  // skips refactorization (the branch-and-bound parent->child pattern).
  // The swap hands the old retained factor's buffers to the next solve.
  ws.cacheBasic.assign(t.basic.begin(), t.basic.end());
  std::swap(t.factor, ws.cacheFactor);

  t.extractSolution(result.x);
  double obj = 0.0;
  for (int j = 0; j < t.n; ++j)
    obj += problem.cost[static_cast<std::size_t>(j)] * result.x[static_cast<std::size_t>(j)];
  result.objective = obj;
  result.status = LpStatus::Optimal;
  return result;
}

}  // namespace hetpar::ilp
