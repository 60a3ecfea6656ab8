#include "hetpar/ilp/basis_factor.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace hetpar::ilp {

namespace {

/// Entries this small relative to the pivot scale are dropped during
/// elimination and eta sparsification: keeping them buys nothing but fill.
constexpr double kDropTol = 1e-13;
/// Threshold partial pivoting: a pivot must carry at least this fraction of
/// the largest entry in its column to be eligible (stability vs sparsity).
constexpr double kPivotThreshold = 0.01;
/// Pivots below this absolute magnitude mean a singular basis.
constexpr double kSingularTol = 1e-11;
/// Columns examined per Markowitz search before settling (real codes cap
/// the search the same way; the matrices here are so sparse that the first
/// few minimum-count columns almost always contain the winner).
constexpr int kMarkowitzSearchCap = 8;

// ---------------------------------------------------------------------------
// Sparse LU with Markowitz pivot selection + product-form eta updates
// ---------------------------------------------------------------------------

class SparseLuFactor final : public BasisFactor {
 public:
  std::unique_ptr<BasisFactor> clone() const override {
    return std::make_unique<SparseLuFactor>(*this);
  }

  bool factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                 const std::vector<int>& basic, int m) override;
  void ftran(std::vector<double>& v) const override;
  void btran(std::vector<double>& v) const override;
  bool update(int r, const std::vector<double>& w) override;

  bool wantRefactorize() const override {
    // Eta-length trigger: each eta adds work to every later FTRAN/BTRAN, so
    // once the file is as long as the basis (or its fill rivals the factor
    // fill several times over) a refactorization is cheaper than carrying
    // on. Clamped so tiny bases still batch a useful number of pivots.
    const long long etaCap = std::clamp<long long>(m_, 32, 160);
    return static_cast<long long>(etas_.size()) > etaCap ||
           etaNonzeros_ > 6 * luNonzeros_ + 8 * m_;
  }

 private:
  /// One L operation: v[row] -= mult * v[pivotRow(step)].
  struct LEntry {
    int row;
    double mult;
  };
  /// One product-form eta: basis slot `slot` was repivoted on column w;
  /// `col` holds the off-pivot entries of w, `pivot` holds w[slot].
  struct Eta {
    int slot;
    double pivot;
    std::vector<std::pair<int, double>> col;
  };

  int m_ = 0;
  std::vector<int> prow_, pcol_;  // per elimination step: pivot row / slot
  std::vector<LEntry> lEntries_;  // grouped by step
  std::vector<int> lStart_;       // size m_+1
  std::vector<std::vector<std::pair<int, double>>> urows_;  // (slot, value), j>step
  std::vector<std::vector<std::pair<int, double>>> ucols_;  // (step k', value), k'<step
  std::vector<double> udiag_;
  std::vector<Eta> etas_;
  long long luNonzeros_ = 0;
  long long etaNonzeros_ = 0;
  // FTRAN/BTRAN run once or twice per simplex iteration; reusing one scratch
  // vector (swapped with the caller's) keeps the hot path allocation-free.
  mutable std::vector<double> scratch_;

  void noteFill() {
    stats_.peakFillNonzeros =
        std::max(stats_.peakFillNonzeros, luNonzeros_ + etaNonzeros_);
    stats_.peakEtaLength =
        std::max(stats_.peakEtaLength, static_cast<long long>(etas_.size()));
  }
};

bool SparseLuFactor::factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                               const std::vector<int>& basic, int m) {
  m_ = m;
  etas_.clear();
  etaNonzeros_ = 0;
  prow_.assign(static_cast<std::size_t>(m), -1);
  pcol_.assign(static_cast<std::size_t>(m), -1);
  lEntries_.clear();
  lStart_.assign(static_cast<std::size_t>(m) + 1, 0);
  urows_.assign(static_cast<std::size_t>(m), {});
  ucols_.assign(static_cast<std::size_t>(m), {});
  udiag_.assign(static_cast<std::size_t>(m), 0.0);

  // Working matrix, row-wise. Entries are (slot, value); rows are original
  // constraint rows. colRows tracks candidate rows per slot (may go stale
  // after eliminations; stale hits are filtered through rowValue).
  std::vector<std::vector<std::pair<int, double>>> rows(static_cast<std::size_t>(m));
  std::vector<std::vector<int>> colRows(static_cast<std::size_t>(m));
  std::vector<int> colCount(static_cast<std::size_t>(m), 0);
  for (int slot = 0; slot < m; ++slot) {
    const int j = basic[static_cast<std::size_t>(slot)];
    for (const auto& [row, coef] : cols[static_cast<std::size_t>(j)]) {
      if (coef == 0.0) continue;
      rows[static_cast<std::size_t>(row)].emplace_back(slot, coef);
      colRows[static_cast<std::size_t>(slot)].push_back(row);
      ++colCount[static_cast<std::size_t>(slot)];
    }
  }

  std::vector<bool> rowActive(static_cast<std::size_t>(m), true);
  std::vector<bool> colActive(static_cast<std::size_t>(m), true);
  // Scratch for sparse row combination: value + presence per slot.
  std::vector<double> accum(static_cast<std::size_t>(m), 0.0);
  std::vector<bool> present(static_cast<std::size_t>(m), false);
  // Candidate buffer for the per-step Markowitz search: the few active
  // slots with the smallest column counts, selected by one linear scan
  // (sorting all slots each step costs O(m^2 log m) per refactorization and
  // dominated the whole solve on ~300-row models).
  std::vector<int> slotOrder;
  slotOrder.reserve(static_cast<std::size_t>(kMarkowitzSearchCap));

  auto rowCount = [&](int row) {
    return static_cast<int>(rows[static_cast<std::size_t>(row)].size());
  };

  for (int step = 0; step < m; ++step) {
    // --- Markowitz pivot search over the few minimum-count columns:
    // insertion-select up to kMarkowitzSearchCap active slots by count.
    slotOrder.clear();
    for (int s = 0; s < m; ++s) {
      if (!colActive[static_cast<std::size_t>(s)]) continue;
      const int count = colCount[static_cast<std::size_t>(s)];
      std::size_t pos = slotOrder.size();
      while (pos > 0 &&
             colCount[static_cast<std::size_t>(slotOrder[pos - 1])] > count)
        --pos;
      if (pos >= static_cast<std::size_t>(kMarkowitzSearchCap)) continue;
      if (slotOrder.size() < static_cast<std::size_t>(kMarkowitzSearchCap))
        slotOrder.push_back(s);
      std::copy_backward(slotOrder.begin() + static_cast<std::ptrdiff_t>(pos),
                         slotOrder.end() - 1, slotOrder.end());
      slotOrder[pos] = s;
    }

    int bestRow = -1, bestSlot = -1;
    double bestValue = 0.0;
    long long bestScore = -1;
    auto examine = [&](int slot) {
      // Column max for the stability threshold, and the candidate entries.
      double colMax = 0.0;
      for (int row : colRows[static_cast<std::size_t>(slot)]) {
        if (!rowActive[static_cast<std::size_t>(row)]) continue;
        for (const auto& [s, v] : rows[static_cast<std::size_t>(row)]) {
          if (s == slot) {
            colMax = std::max(colMax, std::fabs(v));
            break;
          }
        }
      }
      if (colMax < kSingularTol) return;
      for (int row : colRows[static_cast<std::size_t>(slot)]) {
        if (!rowActive[static_cast<std::size_t>(row)]) continue;
        double value = 0.0;
        bool found = false;
        for (const auto& [s, v] : rows[static_cast<std::size_t>(row)]) {
          if (s == slot) {
            value = v;
            found = true;
            break;
          }
        }
        if (!found || std::fabs(value) < kPivotThreshold * colMax ||
            std::fabs(value) < kSingularTol)
          continue;
        const long long score =
            static_cast<long long>(rowCount(row) - 1) *
            (colCount[static_cast<std::size_t>(slot)] - 1);
        if (bestRow < 0 || score < bestScore ||
            (score == bestScore && std::fabs(value) > std::fabs(bestValue))) {
          bestScore = score;
          bestRow = row;
          bestSlot = slot;
          bestValue = value;
        }
      }
    };
    for (int slot : slotOrder) {
      examine(slot);
      if (bestScore == 0) break;  // can't beat a singleton pivot
    }
    if (bestRow < 0) {
      // No numerically eligible pivot among the minimum-count candidates;
      // scan every remaining active slot before declaring singularity.
      for (int s = 0; s < m && bestRow < 0; ++s)
        if (colActive[static_cast<std::size_t>(s)]) examine(s);
    }
    if (bestRow < 0) return false;  // structurally or numerically singular

    prow_[static_cast<std::size_t>(step)] = bestRow;
    pcol_[static_cast<std::size_t>(step)] = bestSlot;
    rowActive[static_cast<std::size_t>(bestRow)] = false;
    colActive[static_cast<std::size_t>(bestSlot)] = false;

    // Freeze the pivot row as U row `step`.
    udiag_[static_cast<std::size_t>(step)] = bestValue;
    auto& urow = urows_[static_cast<std::size_t>(step)];
    for (const auto& [s, v] : rows[static_cast<std::size_t>(bestRow)]) {
      if (s == bestSlot) continue;
      urow.emplace_back(s, v);
      --colCount[static_cast<std::size_t>(s)];
    }
    --colCount[static_cast<std::size_t>(bestSlot)];

    // Eliminate the pivot column from every other active row.
    lStart_[static_cast<std::size_t>(step)] = static_cast<int>(lEntries_.size());
    const auto& pivotRow = rows[static_cast<std::size_t>(bestRow)];
    const double dropBelow = kDropTol * std::fabs(bestValue);
    for (int row : colRows[static_cast<std::size_t>(bestSlot)]) {
      if (!rowActive[static_cast<std::size_t>(row)]) continue;
      auto& target = rows[static_cast<std::size_t>(row)];
      double value = 0.0;
      bool found = false;
      for (const auto& [s, v] : target) {
        if (s == bestSlot) {
          value = v;
          found = true;
          break;
        }
      }
      if (!found) continue;  // stale colRows entry
      const double mult = value / bestValue;
      lEntries_.push_back({row, mult});

      // target -= mult * pivotRow (sparse combine through the scratch).
      for (const auto& [s, v] : target) {
        accum[static_cast<std::size_t>(s)] = v;
        present[static_cast<std::size_t>(s)] = true;
      }
      for (const auto& [s, v] : pivotRow) {
        if (!present[static_cast<std::size_t>(s)]) {
          present[static_cast<std::size_t>(s)] = true;
          accum[static_cast<std::size_t>(s)] = -mult * v;
          if (s != bestSlot && colActive[static_cast<std::size_t>(s)]) {
            // Fill-in: register the row under the new column.
            colRows[static_cast<std::size_t>(s)].push_back(row);
            ++colCount[static_cast<std::size_t>(s)];
          }
        } else {
          accum[static_cast<std::size_t>(s)] -= mult * v;
        }
      }
      std::vector<std::pair<int, double>> combined;
      combined.reserve(target.size() + pivotRow.size());
      auto consider = [&](int s) {
        if (!present[static_cast<std::size_t>(s)]) return;
        present[static_cast<std::size_t>(s)] = false;
        const double v = accum[static_cast<std::size_t>(s)];
        accum[static_cast<std::size_t>(s)] = 0.0;
        if (s == bestSlot) {
          --colCount[static_cast<std::size_t>(s)];
          return;  // eliminated by construction
        }
        if (std::fabs(v) <= dropBelow) {
          if (colActive[static_cast<std::size_t>(s)])
            --colCount[static_cast<std::size_t>(s)];
          return;
        }
        combined.emplace_back(s, v);
      };
      for (const auto& [s, v] : target) consider(s);
      for (const auto& [s, v] : pivotRow) consider(s);
      target = std::move(combined);
    }
  }
  lStart_[static_cast<std::size_t>(m)] = static_cast<int>(lEntries_.size());

  // Column-wise U view for BTRAN's forward substitution. slotStep maps a
  // basis slot to the elimination step that pivoted it.
  std::vector<int> slotStep(static_cast<std::size_t>(m), -1);
  for (int k = 0; k < m; ++k) slotStep[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])] = k;
  for (int k = 0; k < m; ++k) {
    for (const auto& [slot, v] : urows_[static_cast<std::size_t>(k)])
      ucols_[static_cast<std::size_t>(slotStep[static_cast<std::size_t>(slot)])].emplace_back(k, v);
  }

  luNonzeros_ = static_cast<long long>(lEntries_.size()) + m;
  for (const auto& urow : urows_) luNonzeros_ += static_cast<long long>(urow.size());
  ++stats_.refactorizations;
  noteFill();
  return true;
}

void SparseLuFactor::ftran(std::vector<double>& v) const {
  // Apply L (the recorded eliminations) to the row-indexed rhs.
  for (int k = 0; k < m_; ++k) {
    const double pv = v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    if (pv == 0.0) continue;
    for (int e = lStart_[static_cast<std::size_t>(k)]; e < lStart_[static_cast<std::size_t>(k) + 1]; ++e)
      v[static_cast<std::size_t>(lEntries_[static_cast<std::size_t>(e)].row)] -=
          lEntries_[static_cast<std::size_t>(e)].mult * pv;
  }
  // Back-substitute U into slot-indexed x (the reusable scratch).
  std::vector<double>& x = scratch_;
  x.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    double val = v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    for (const auto& [slot, u] : urows_[static_cast<std::size_t>(k)])
      val -= u * x[static_cast<std::size_t>(slot)];
    x[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])] =
        val / udiag_[static_cast<std::size_t>(k)];
  }
  v.swap(x);
  // Product-form etas, oldest first.
  for (const Eta& eta : etas_) {
    double& vr = v[static_cast<std::size_t>(eta.slot)];
    if (vr == 0.0) continue;
    vr /= eta.pivot;
    for (const auto& [i, w] : eta.col) v[static_cast<std::size_t>(i)] -= w * vr;
  }
}

void SparseLuFactor::btran(std::vector<double>& v) const {
  // Transposed etas, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = v[static_cast<std::size_t>(it->slot)];
    for (const auto& [i, w] : it->col) s -= w * v[static_cast<std::size_t>(i)];
    v[static_cast<std::size_t>(it->slot)] = s / it->pivot;
  }
  // Forward-substitute U^T: z[prow_k] from the slot-indexed costs.
  std::vector<double>& z = scratch_;
  z.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    double val = v[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])];
    for (const auto& [kPrev, u] : ucols_[static_cast<std::size_t>(k)])
      val -= u * z[static_cast<std::size_t>(prow_[static_cast<std::size_t>(kPrev)])];
    z[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])] =
        val / udiag_[static_cast<std::size_t>(k)];
  }
  // Apply L^T in reverse step order.
  for (int k = m_ - 1; k >= 0; --k) {
    double& pv = z[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    for (int e = lStart_[static_cast<std::size_t>(k)]; e < lStart_[static_cast<std::size_t>(k) + 1]; ++e)
      pv -= lEntries_[static_cast<std::size_t>(e)].mult *
            z[static_cast<std::size_t>(lEntries_[static_cast<std::size_t>(e)].row)];
  }
  v.swap(z);
}

bool SparseLuFactor::update(int r, const std::vector<double>& w) {
  const double pivot = w[static_cast<std::size_t>(r)];
  double wMax = 0.0;
  for (double x : w) wMax = std::max(wMax, std::fabs(x));
  // Reject pivots that are absolutely tiny or badly dominated by the rest
  // of the column: the product-form eta would amplify error by wMax/pivot.
  if (std::fabs(pivot) < 1e-9 || std::fabs(pivot) < 1e-7 * wMax) return false;

  Eta eta;
  eta.slot = r;
  eta.pivot = pivot;
  const double dropBelow = kDropTol * std::fabs(pivot);
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double x = w[static_cast<std::size_t>(i)];
    if (std::fabs(x) > dropBelow) eta.col.emplace_back(i, x);
  }
  etaNonzeros_ += static_cast<long long>(eta.col.size()) + 1;
  etas_.push_back(std::move(eta));
  ++stats_.etaUpdates;
  noteFill();
  return true;
}

}  // namespace

std::unique_ptr<BasisFactor> makeSparseLuFactor() { return std::make_unique<SparseLuFactor>(); }

}  // namespace hetpar::ilp
