// Basis-inverse representations for the bounded-variable simplex.
//
// The simplex driver only ever needs four operations on the basis matrix B
// (whose column at slot i is the constraint column of the variable basic in
// row i):
//
//   factorize   rebuild the representation from the basis columns
//   ftran       solve B x = b        (entering column / basic values)
//   btran       solve B^T y = c_B    (duals for pricing)
//   update      replace the column at one slot after a pivot, given the
//               FTRAN'd entering column w = B^{-1} a_entering
//
// The production implementation is SparseLuFactor: sparse LU via Gaussian
// elimination with Markowitz-style pivot selection (fill-in control) and
// threshold partial pivoting (stability), FTRAN/BTRAN against the stored
// L/U factors, product-form eta updates per simplex pivot and an eta-length
// trigger that asks the driver to refactorize. The parallelizer's ILPPAR
// models touch 2-5 variables per constraint, so factors and etas stay tiny.
// The differential tests and the fuzzer substitute the seed's explicit dense
// inverse (verify/dense_factor.hpp) through a `BasisFactorFactory`.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "hetpar/ilp/model.hpp"

namespace hetpar::ilp {

/// Counters a factorization accumulates over one simplex solve. Absorbed
/// into LpResult/SolveStats and ultimately parallel::IlpStatistics.
struct FactorStats {
  long long refactorizations = 0;  ///< factorize() calls (incl. the first)
  long long etaUpdates = 0;        ///< pivot updates applied between refactorizations
  long long peakEtaLength = 0;     ///< longest eta file seen (sparse engine)
  long long peakFillNonzeros = 0;  ///< largest factor nonzero count seen
};

class BasisFactor {
 public:
  virtual ~BasisFactor() = default;

  /// Makes this a copy of `other`'s factorization (eta file included; stats
  /// and working buffers are not copied). `other` comes from the same
  /// factory. Reuses this object's buffers, so BoundedSimplex's warm-start
  /// factor cache restores its retained factor without allocating.
  virtual void assign(const BasisFactor& other) = 0;

  /// Rebuilds the representation for the basis whose slot-i column is
  /// cols[basic[i]]. Returns false on a (numerically) singular basis, in
  /// which case the object must not be used until a successful factorize.
  virtual bool factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                         const std::vector<int>& basic, int m) = 0;

  /// In: b indexed by constraint row. Out: x indexed by basis slot, B x = b.
  virtual void ftran(std::vector<double>& v) const = 0;

  /// FTRAN of a sparse column: scatters `col` into `out` (pre-sized to m,
  /// zeroed here) and solves. The dense reference overrides this to exploit
  /// column sparsity the way the seed's explicit-inverse loop did.
  virtual void ftranColumn(const std::vector<std::pair<int, double>>& col,
                           std::vector<double>& out) const {
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto& [row, coef] : col) out[static_cast<std::size_t>(row)] = coef;
    ftran(out);
  }

  /// In: c indexed by basis slot. Out: y indexed by constraint row,
  /// B^T y = c.
  virtual void btran(std::vector<double>& v) const = 0;

  /// Records the basis change "column at slot r replaced by the column whose
  /// FTRAN is w". Returns false when the update is numerically unsafe (tiny
  /// pivot w[r]); the caller must refactorize instead.
  virtual bool update(int r, const std::vector<double>& w) = 0;

  /// True when the representation has degraded enough (eta-file length /
  /// accumulated fill) that the next iteration should refactorize. The dense
  /// inverse never asks: its rank-1 update cost is flat.
  virtual bool wantRefactorize() const = 0;

  const FactorStats& stats() const { return stats_; }
  /// Zeroes the counters; used at the start of every solve so a reused or
  /// cached factor does not carry the previous solve's counts.
  void resetStats() { stats_ = FactorStats{}; }

 protected:
  FactorStats stats_;
};

/// Makes the (empty) basis representation each simplex solve starts from.
using BasisFactorFactory = std::unique_ptr<BasisFactor> (*)();

/// The production representation: sparse LU with eta updates.
std::unique_ptr<BasisFactor> makeSparseLuFactor();

}  // namespace hetpar::ilp
