// Bounded-variable primal simplex.
//
// Solves LPs in computational standard form
//     minimize c'x   subject to  A x = b,  l <= x <= u
// where general bounds (including infinite ones) are handled implicitly by
// the simplex method rather than as extra rows. This is the LP engine
// underneath the branch-and-bound MILP solver; keeping bounds implicit is
// what makes repeated relaxation solves cheap for the parallelizer's
// binary-heavy models.
//
// Implementation: two-phase method with one artificial variable per row.
// The basis inverse lives behind the `BasisFactor` interface: production
// solves keep a sparse LU factorization with product-form eta updates and
// periodic refactorization, priced partially. The constructor's factory
// argument lets tests substitute the dense reference inverse
// (verify/dense_factor.hpp), which then shares this pivoting layer's
// pricing, ratio test, bound flips and Bland's-rule fallback, so the two
// differ only in how B^{-1} is represented — which is what makes their
// agreement a meaningful check.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hetpar/ilp/basis_factor.hpp"
#include "hetpar/ilp/model.hpp"

namespace hetpar::ilp {

/// LP in computational standard form. Rows are equalities; the caller adds
/// slack columns for inequality rows (see `buildLp`).
struct LpProblem {
  int numRows = 0;
  int numCols = 0;
  /// Column-wise sparse matrix: cols[j] lists (row, coefficient) pairs.
  std::vector<std::vector<std::pair<int, double>>> cols;
  std::vector<double> rhs;    ///< size numRows
  std::vector<double> cost;   ///< size numCols
  std::vector<double> lower;  ///< size numCols, may be -inf
  std::vector<double> upper;  ///< size numCols, may be +inf
};

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpResult {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< size numCols; valid when status == Optimal
  long long iterations = 0;
  /// Basis-representation counters for this solve (refactorizations, eta
  /// updates, peak fill); zeroed for the row-free fast path.
  FactorStats factorStats;
};

/// Conversion of a `Model` (plus per-variable bound overrides used by
/// branch and bound) into standard form. Columns [0, numStructural) of the
/// LpProblem correspond 1:1 to model variables; the rest are slacks.
struct StandardForm {
  LpProblem problem;
  int numStructural = 0;
};

StandardForm buildLp(const Model& model, const std::vector<double>& lowerOverride,
                     const std::vector<double>& upperOverride);

/// A compact simplex basis: which columns are basic, and at which bound each
/// nonbasic column rests. Exported after a solve and fed back as a warm
/// start for a neighboring problem (same matrix, different bounds) — the
/// branch-and-bound workhorse.
struct SimplexBasis {
  std::vector<int> basicCols;      ///< size numRows
  std::vector<std::uint8_t> atUpper;  ///< size numCols; 1 = nonbasic at upper
  bool valid() const { return !basicCols.empty(); }
};

class BoundedSimplex {
 public:
  explicit BoundedSimplex(double tol = 1e-9, BasisFactorFactory makeFactor = makeSparseLuFactor);
  ~BoundedSimplex();

  /// Solves the LP; `maxIterations <= 0` selects an automatic limit.
  /// `warm` (optional) seeds the solve from a previous basis of a problem
  /// with the same matrix (bounds may differ); on structural mismatch or
  /// numerical failure the solver silently falls back to a cold start.
  /// `basisOut` (optional) receives the final basis on optimal solves.
  LpResult solve(const LpProblem& problem, long long maxIterations = 0,
                 const SimplexBasis* warm = nullptr, SimplexBasis* basisOut = nullptr);

 private:
  double tol_;
  BasisFactorFactory makeFactor_;
  /// Working state kept for the solver's lifetime (one branch-and-bound
  /// solve): the tableau arrays, the matrix with the artificial columns
  /// appended, the basis factor with its working buffers, and the
  /// retained factorization of the last optimal basis (warm-start
  /// accelerator for consecutive node solves). Node solves reuse its
  /// capacity instead of reallocating. The retained factor is reused only
  /// when the problem's matrix equals the workspace's copy exactly and the
  /// basis columns match: matrices with equal row counts but different
  /// entries must never share a factorization (the historical
  /// cross-problem reuse hazard).
  struct Workspace;
  std::unique_ptr<Workspace> ws_;
};

}  // namespace hetpar::ilp
