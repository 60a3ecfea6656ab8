#include "hetpar/ilp/basis_factor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

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
  void assign(const BasisFactor& other) override {
    lu_ = dynamic_cast<const SparseLuFactor&>(other).lu_;
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
    const long long etaCap = std::clamp<long long>(lu_.m, 32, 160);
    return static_cast<long long>(lu_.etaSlot.size()) > etaCap ||
           lu_.etaNonzeros > 6 * lu_.luNonzeros + 8 * lu_.m;
  }

 private:
  using Entry = std::pair<int, double>;
  /// One L operation: v[row] -= mult * v[pivotRow(step)].
  struct LEntry {
    int row;
    double mult;
  };

  /// The factorization proper: what `assign` copies. Every list is flat
  /// (entries plus per-item start offsets), so refactorizing, copying and
  /// appending an eta reuse capacity instead of allocating.
  struct Factors {
    int m = 0;
    std::vector<int> prow, pcol;  // per elimination step: pivot row / slot
    std::vector<LEntry> lEntries;  // grouped by step
    std::vector<int> lStart;       // size m+1
    std::vector<Entry> uRows;      // U row k: (slot, value), slots pivoted after k
    std::vector<int> uRowStart;    // size m+1
    std::vector<Entry> uCols;      // U column k: (step k', value), k' < k
    std::vector<int> uColStart;    // size m+1
    std::vector<double> udiag;
    // Product-form etas, oldest first: basis slot etaSlot[e] was repivoted
    // on a column w with w[slot] = etaPivot[e]. Eta e is the dense m-column
    // etaCols[e*m, (e+1)*m): w's kept off-pivot entries at their rows, zero
    // at the pivot slot and at dropped entries. etaNonzeros counts only the
    // kept entries (plus one pivot per eta), so the refactorization trigger
    // does not see the zeros.
    std::vector<int> etaSlot;
    std::vector<double> etaPivot;
    std::vector<double> etaCols;
    long long luNonzeros = 0;
    long long etaNonzeros = 0;
  };

  /// Working storage of `factorize` (never copied; sized on first use).
  struct Scratch {
    // Working matrix, row-wise: entries are (slot, value) on original
    // constraint rows. colRows lists candidate rows per slot (may go stale
    // after eliminations; stale hits are filtered through the row entries).
    std::vector<std::vector<Entry>> rows;
    std::vector<std::vector<int>> colRows;
    std::vector<int> colCount;
    std::vector<char> rowActive, colActive;
    // Sparse row combination: value + presence per slot, and the combined
    // row (swapped into place, so row buffers circulate instead of being
    // reallocated).
    std::vector<double> accum;
    std::vector<char> present;
    std::vector<Entry> combined;
    // Markowitz search: one bitset of active slots per column count
    // (bucket c at words [c * words, (c+1) * words)) and its population.
    int words = 0;
    std::vector<std::uint64_t> buckets;
    std::vector<int> bucketSize;
    std::vector<int> candidates;
    // U column build: the step that pivoted each slot, and the next free
    // position in each column.
    std::vector<int> slotStep, uColNext;
  };

  Factors lu_;
  Scratch work_;
  // FTRAN/BTRAN run once or twice per simplex iteration; reusing one scratch
  // vector (swapped with the caller's) keeps the hot path allocation-free.
  mutable std::vector<double> solveScratch_;
  // BTRAN's nonzero rows of v, one bit per row.
  mutable std::vector<std::uint64_t> nonzeroBits_;

  // A column's count never exceeds the m rows on well-formed input (one
  // entry per row); the clamp only keeps a malformed basis in bounds.
  std::size_t bucketOf(int count) const {
    return static_cast<std::size_t>(std::clamp(count, 0, lu_.m));
  }
  void bucketInsert(int slot, int count) {
    work_.buckets[bucketOf(count) * work_.words + static_cast<std::size_t>(slot >> 6)] |=
        std::uint64_t{1} << (slot & 63);
    ++work_.bucketSize[bucketOf(count)];
  }
  void bucketErase(int slot, int count) {
    work_.buckets[bucketOf(count) * work_.words + static_cast<std::size_t>(slot >> 6)] &=
        ~(std::uint64_t{1} << (slot & 63));
    --work_.bucketSize[bucketOf(count)];
  }
  /// Every column-count change goes through here so an active slot always
  /// sits in the bucket of its current count.
  void addToCount(int slot, int delta) {
    int& count = work_.colCount[static_cast<std::size_t>(slot)];
    if (work_.colActive[static_cast<std::size_t>(slot)]) {
      bucketErase(slot, count);
      bucketInsert(slot, count + delta);
    }
    count += delta;
  }
  /// The up-to-`cap` active slots with the smallest (count, slot), in that
  /// order, from the count buckets; `active` is the number of active slots.
  void selectCandidates(int cap, int active);

  void noteFill() {
    stats_.peakFillNonzeros =
        std::max(stats_.peakFillNonzeros, lu_.luNonzeros + lu_.etaNonzeros);
    stats_.peakEtaLength =
        std::max(stats_.peakEtaLength, static_cast<long long>(lu_.etaSlot.size()));
  }
};

void SparseLuFactor::selectCandidates(int cap, int active) {
  auto& out = work_.candidates;
  out.clear();
  const auto want = static_cast<std::size_t>(std::min(cap, active));
  for (std::size_t count = 0; count < work_.bucketSize.size() && out.size() < want; ++count) {
    if (work_.bucketSize[count] == 0) continue;
    const std::uint64_t* bucket = &work_.buckets[count * work_.words];
    for (int w = 0; w < work_.words && out.size() < want; ++w) {
      for (std::uint64_t bits = bucket[w]; bits != 0 && out.size() < want; bits &= bits - 1)
        out.push_back(w * 64 + std::countr_zero(bits));
    }
  }
}

bool SparseLuFactor::factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                               const std::vector<int>& basic, int m) {
  const auto um = static_cast<std::size_t>(m);
  lu_.m = m;
  lu_.etaSlot.clear();
  lu_.etaPivot.clear();
  lu_.etaCols.clear();
  lu_.etaNonzeros = 0;
  lu_.prow.assign(um, -1);
  lu_.pcol.assign(um, -1);
  lu_.lEntries.clear();
  lu_.lStart.assign(um + 1, 0);
  lu_.uRows.clear();
  lu_.uRowStart.assign(um + 1, 0);
  lu_.udiag.assign(um, 0.0);

  Scratch& w = work_;
  if (w.rows.size() < um) w.rows.resize(um);
  if (w.colRows.size() < um) w.colRows.resize(um);
  for (std::size_t i = 0; i < um; ++i) {
    w.rows[i].clear();
    w.colRows[i].clear();
  }
  w.colCount.assign(um, 0);
  for (int slot = 0; slot < m; ++slot) {
    const int j = basic[static_cast<std::size_t>(slot)];
    for (const auto& [row, coef] : cols[static_cast<std::size_t>(j)]) {
      if (coef == 0.0) continue;
      w.rows[static_cast<std::size_t>(row)].emplace_back(slot, coef);
      w.colRows[static_cast<std::size_t>(slot)].push_back(row);
      ++w.colCount[static_cast<std::size_t>(slot)];
    }
  }
  w.rowActive.assign(um, 1);
  w.colActive.assign(um, 1);
  w.accum.assign(um, 0.0);
  w.present.assign(um, 0);
  // Count buckets 0..m replace a per-step scan over every slot.
  w.words = (m + 63) / 64;
  w.buckets.assign((um + 1) * static_cast<std::size_t>(w.words), 0);
  w.bucketSize.assign(um + 1, 0);
  for (int slot = 0; slot < m; ++slot) bucketInsert(slot, w.colCount[static_cast<std::size_t>(slot)]);

  auto rowCount = [&](int row) {
    return static_cast<int>(w.rows[static_cast<std::size_t>(row)].size());
  };

  for (int step = 0; step < m; ++step) {
    // --- Markowitz pivot search over the few minimum-count columns.
    selectCandidates(kMarkowitzSearchCap, m - step);

    int bestRow = -1, bestSlot = -1;
    double bestValue = 0.0;
    long long bestScore = -1;
    auto examine = [&](int slot) {
      // Column max for the stability threshold, and the candidate entries.
      double colMax = 0.0;
      for (int row : w.colRows[static_cast<std::size_t>(slot)]) {
        if (!w.rowActive[static_cast<std::size_t>(row)]) continue;
        for (const auto& [s, v] : w.rows[static_cast<std::size_t>(row)]) {
          if (s == slot) {
            colMax = std::max(colMax, std::fabs(v));
            break;
          }
        }
      }
      if (colMax < kSingularTol) return;
      for (int row : w.colRows[static_cast<std::size_t>(slot)]) {
        if (!w.rowActive[static_cast<std::size_t>(row)]) continue;
        double value = 0.0;
        bool found = false;
        for (const auto& [s, v] : w.rows[static_cast<std::size_t>(row)]) {
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
            (w.colCount[static_cast<std::size_t>(slot)] - 1);
        if (bestRow < 0 || score < bestScore ||
            (score == bestScore && std::fabs(value) > std::fabs(bestValue))) {
          bestScore = score;
          bestRow = row;
          bestSlot = slot;
          bestValue = value;
        }
      }
    };
    for (int slot : w.candidates) {
      examine(slot);
      if (bestScore == 0) break;  // can't beat a singleton pivot
    }
    if (bestRow < 0) {
      // No numerically eligible pivot among the minimum-count candidates;
      // scan every remaining active slot before declaring singularity.
      for (int s = 0; s < m && bestRow < 0; ++s)
        if (w.colActive[static_cast<std::size_t>(s)]) examine(s);
    }
    if (bestRow < 0) return false;  // structurally or numerically singular

    lu_.prow[static_cast<std::size_t>(step)] = bestRow;
    lu_.pcol[static_cast<std::size_t>(step)] = bestSlot;
    w.rowActive[static_cast<std::size_t>(bestRow)] = 0;
    bucketErase(bestSlot, w.colCount[static_cast<std::size_t>(bestSlot)]);
    w.colActive[static_cast<std::size_t>(bestSlot)] = 0;

    // Freeze the pivot row as U row `step`.
    lu_.udiag[static_cast<std::size_t>(step)] = bestValue;
    for (const auto& [s, v] : w.rows[static_cast<std::size_t>(bestRow)]) {
      if (s == bestSlot) continue;
      lu_.uRows.emplace_back(s, v);
      addToCount(s, -1);
    }
    lu_.uRowStart[static_cast<std::size_t>(step) + 1] = static_cast<int>(lu_.uRows.size());
    --w.colCount[static_cast<std::size_t>(bestSlot)];

    // Eliminate the pivot column from every other active row.
    lu_.lStart[static_cast<std::size_t>(step)] = static_cast<int>(lu_.lEntries.size());
    const auto& pivotRow = w.rows[static_cast<std::size_t>(bestRow)];
    const double dropBelow = kDropTol * std::fabs(bestValue);
    for (int row : w.colRows[static_cast<std::size_t>(bestSlot)]) {
      if (!w.rowActive[static_cast<std::size_t>(row)]) continue;
      auto& target = w.rows[static_cast<std::size_t>(row)];
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
      lu_.lEntries.push_back({row, mult});

      // target -= mult * pivotRow (sparse combine through the scratch).
      for (const auto& [s, v] : target) {
        w.accum[static_cast<std::size_t>(s)] = v;
        w.present[static_cast<std::size_t>(s)] = 1;
      }
      for (const auto& [s, v] : pivotRow) {
        if (!w.present[static_cast<std::size_t>(s)]) {
          w.present[static_cast<std::size_t>(s)] = 1;
          w.accum[static_cast<std::size_t>(s)] = -mult * v;
          if (s != bestSlot && w.colActive[static_cast<std::size_t>(s)]) {
            // Fill-in: register the row under the new column.
            w.colRows[static_cast<std::size_t>(s)].push_back(row);
            addToCount(s, +1);
          }
        } else {
          w.accum[static_cast<std::size_t>(s)] -= mult * v;
        }
      }
      std::vector<Entry>& combined = w.combined;
      combined.clear();
      auto consider = [&](int s) {
        if (!w.present[static_cast<std::size_t>(s)]) return;
        w.present[static_cast<std::size_t>(s)] = 0;
        const double v = w.accum[static_cast<std::size_t>(s)];
        w.accum[static_cast<std::size_t>(s)] = 0.0;
        if (s == bestSlot) {
          --w.colCount[static_cast<std::size_t>(s)];
          return;  // eliminated by construction
        }
        if (std::fabs(v) <= dropBelow) {
          if (w.colActive[static_cast<std::size_t>(s)]) addToCount(s, -1);
          return;
        }
        combined.emplace_back(s, v);
      };
      for (const auto& [s, v] : target) consider(s);
      for (const auto& [s, v] : pivotRow) consider(s);
      target.swap(combined);
    }
  }
  lu_.lStart[um] = static_cast<int>(lu_.lEntries.size());

  // Column-wise U view for BTRAN's forward substitution, by counting sort
  // (each column keeps ascending step order). slotStep maps a basis slot
  // to the elimination step that pivoted it.
  w.slotStep.assign(um, -1);
  for (int k = 0; k < m; ++k) w.slotStep[static_cast<std::size_t>(lu_.pcol[static_cast<std::size_t>(k)])] = k;
  lu_.uColStart.assign(um + 1, 0);
  for (const auto& [slot, v] : lu_.uRows)
    ++lu_.uColStart[static_cast<std::size_t>(w.slotStep[static_cast<std::size_t>(slot)]) + 1];
  for (std::size_t k = 0; k < um; ++k) lu_.uColStart[k + 1] += lu_.uColStart[k];
  lu_.uCols.resize(lu_.uRows.size());
  std::vector<int>& fill = w.uColNext;
  fill.assign(lu_.uColStart.begin(), lu_.uColStart.end() - 1);
  for (int k = 0; k < m; ++k) {
    for (int e = lu_.uRowStart[static_cast<std::size_t>(k)]; e < lu_.uRowStart[static_cast<std::size_t>(k) + 1]; ++e) {
      const auto& [slot, v] = lu_.uRows[static_cast<std::size_t>(e)];
      const int col = w.slotStep[static_cast<std::size_t>(slot)];
      lu_.uCols[static_cast<std::size_t>(fill[static_cast<std::size_t>(col)]++)] = {k, v};
    }
  }

  lu_.luNonzeros = static_cast<long long>(lu_.lEntries.size() + lu_.uRows.size()) + m;
  ++stats_.refactorizations;
  noteFill();
  return true;
}

void SparseLuFactor::ftran(std::vector<double>& v) const {
  const int m = lu_.m;
  // Apply L (the recorded eliminations) to the row-indexed rhs.
  for (int k = 0; k < m; ++k) {
    const double pv = v[static_cast<std::size_t>(lu_.prow[static_cast<std::size_t>(k)])];
    if (pv == 0.0) continue;
    for (int e = lu_.lStart[static_cast<std::size_t>(k)]; e < lu_.lStart[static_cast<std::size_t>(k) + 1]; ++e)
      v[static_cast<std::size_t>(lu_.lEntries[static_cast<std::size_t>(e)].row)] -=
          lu_.lEntries[static_cast<std::size_t>(e)].mult * pv;
  }
  // Back-substitute U into slot-indexed x (the reusable scratch).
  std::vector<double>& x = solveScratch_;
  x.assign(static_cast<std::size_t>(m), 0.0);
  for (int k = m - 1; k >= 0; --k) {
    double val = v[static_cast<std::size_t>(lu_.prow[static_cast<std::size_t>(k)])];
    for (int e = lu_.uRowStart[static_cast<std::size_t>(k)]; e < lu_.uRowStart[static_cast<std::size_t>(k) + 1]; ++e) {
      const auto& [slot, u] = lu_.uRows[static_cast<std::size_t>(e)];
      val -= u * x[static_cast<std::size_t>(slot)];
    }
    x[static_cast<std::size_t>(lu_.pcol[static_cast<std::size_t>(k)])] =
        val / lu_.udiag[static_cast<std::size_t>(k)];
  }
  v.swap(x);
  // Product-form etas, oldest first, each a contiguous axpy. The zeros at
  // the pivot slot and at dropped entries subtract an exact zero.
  const auto um = static_cast<std::size_t>(m);
  double* vd = v.data();
  for (std::size_t e = 0; e < lu_.etaSlot.size(); ++e) {
    double& slotValue = vd[lu_.etaSlot[e]];
    if (slotValue == 0.0) continue;
    const double vr = slotValue / lu_.etaPivot[e];
    slotValue = vr;
    const double* col = lu_.etaCols.data() + e * um;
    for (std::size_t i = 0; i < um; ++i) vd[i] -= col[i] * vr;
  }
}

void SparseLuFactor::btran(std::vector<double>& v) const {
  const int m = lu_.m;
  // Transposed etas, newest first. Each dot product runs only over v's
  // nonzero rows, in ascending order: the terms it skips are exact zeros.
  if (!lu_.etaSlot.empty()) {
    const auto um = static_cast<std::size_t>(m);
    const std::size_t words = (um + 63) / 64;
    std::vector<std::uint64_t>& bits = nonzeroBits_;
    bits.assign(words, 0);
    for (std::size_t i = 0; i < um; ++i)
      if (v[i] != 0.0) bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    for (std::size_t e = lu_.etaSlot.size(); e-- > 0;) {
      const auto slot = static_cast<std::size_t>(lu_.etaSlot[e]);
      const double* col = lu_.etaCols.data() + e * um;
      double s = v[slot];
      for (std::size_t wd = 0; wd < words; ++wd) {
        for (std::uint64_t b = bits[wd]; b != 0; b &= b - 1) {
          const std::size_t i = wd * 64 + static_cast<std::size_t>(std::countr_zero(b));
          s -= col[i] * v[i];
        }
      }
      v[slot] = s / lu_.etaPivot[e];
      const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
      if (v[slot] != 0.0) bits[slot >> 6] |= bit;
      else bits[slot >> 6] &= ~bit;
    }
  }
  // Forward-substitute U^T: z[prow_k] from the slot-indexed costs.
  std::vector<double>& z = solveScratch_;
  z.assign(static_cast<std::size_t>(m), 0.0);
  for (int k = 0; k < m; ++k) {
    double val = v[static_cast<std::size_t>(lu_.pcol[static_cast<std::size_t>(k)])];
    for (int e = lu_.uColStart[static_cast<std::size_t>(k)]; e < lu_.uColStart[static_cast<std::size_t>(k) + 1]; ++e) {
      const auto& [kPrev, u] = lu_.uCols[static_cast<std::size_t>(e)];
      val -= u * z[static_cast<std::size_t>(lu_.prow[static_cast<std::size_t>(kPrev)])];
    }
    z[static_cast<std::size_t>(lu_.prow[static_cast<std::size_t>(k)])] =
        val / lu_.udiag[static_cast<std::size_t>(k)];
  }
  // Apply L^T in reverse step order.
  for (int k = m - 1; k >= 0; --k) {
    double& pv = z[static_cast<std::size_t>(lu_.prow[static_cast<std::size_t>(k)])];
    for (int e = lu_.lStart[static_cast<std::size_t>(k)]; e < lu_.lStart[static_cast<std::size_t>(k) + 1]; ++e)
      pv -= lu_.lEntries[static_cast<std::size_t>(e)].mult *
            z[static_cast<std::size_t>(lu_.lEntries[static_cast<std::size_t>(e)].row)];
  }
  v.swap(z);
}

bool SparseLuFactor::update(int r, const std::vector<double>& w) {
  const auto um = static_cast<std::size_t>(lu_.m);
  const auto ur = static_cast<std::size_t>(r);
  const double pivot = w[ur];
  const double dropBelow = kDropTol * std::fabs(pivot);
  // One pass finds wMax and writes the eta column (taken back if the pivot
  // is rejected).
  const std::size_t base = lu_.etaCols.size();
  lu_.etaCols.resize(base + um);
  double* col = lu_.etaCols.data() + base;
  double wMax = 0.0;
  long long kept = 0;
  for (std::size_t i = 0; i < um; ++i) {
    const double x = std::fabs(w[i]);
    wMax = std::max(wMax, x);
    const bool keep = x > dropBelow;
    col[i] = keep ? w[i] : 0.0;
    kept += keep ? 1 : 0;
  }
  // Reject pivots that are absolutely tiny or badly dominated by the rest
  // of the column: the product-form eta would amplify error by wMax/pivot.
  if (std::fabs(pivot) < 1e-9 || std::fabs(pivot) < 1e-7 * wMax) {
    lu_.etaCols.resize(base);
    return false;
  }
  col[ur] = 0.0;  // the pivot is kept (|pivot| > dropBelow) but lives in etaPivot
  lu_.etaSlot.push_back(r);
  lu_.etaPivot.push_back(pivot);
  lu_.etaNonzeros += kept;  // the off-pivot entries plus the pivot
  ++stats_.etaUpdates;
  noteFill();
  return true;
}

}  // namespace

std::unique_ptr<BasisFactor> makeSparseLuFactor() { return std::make_unique<SparseLuFactor>(); }

}  // namespace hetpar::ilp
