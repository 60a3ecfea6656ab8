#include "hetpar/verify/dense_factor.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace hetpar::verify {

namespace {

class DenseInverseFactor final : public ilp::BasisFactor {
 public:
  void assign(const ilp::BasisFactor& other) override {
    const auto& from = dynamic_cast<const DenseInverseFactor&>(other);
    m_ = from.m_;
    binv_ = from.binv_;
  }

  bool factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                 const std::vector<int>& basic, int m) override {
    m_ = m;
    // Build the basis matrix column-by-column, then invert by Gauss-Jordan
    // with partial pivoting (exactly the seed's refactorization).
    std::vector<double> mat(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) {
      const int j = basic[static_cast<std::size_t>(i)];
      for (const auto& [row, coef] : cols[static_cast<std::size_t>(j)])
        mat[static_cast<std::size_t>(row) * m + i] = coef;
    }
    std::vector<double> inv(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) inv[static_cast<std::size_t>(i) * m + i] = 1.0;

    for (int col = 0; col < m; ++col) {
      int pivotRow = col;
      double best = std::fabs(mat[static_cast<std::size_t>(col) * m + col]);
      for (int r = col + 1; r < m; ++r) {
        const double v = std::fabs(mat[static_cast<std::size_t>(r) * m + col]);
        if (v > best) {
          best = v;
          pivotRow = r;
        }
      }
      if (best < 1e-12) return false;
      if (pivotRow != col) {
        for (int k = 0; k < m; ++k) {
          std::swap(mat[static_cast<std::size_t>(pivotRow) * m + k],
                    mat[static_cast<std::size_t>(col) * m + k]);
          std::swap(inv[static_cast<std::size_t>(pivotRow) * m + k],
                    inv[static_cast<std::size_t>(col) * m + k]);
        }
      }
      const double piv = mat[static_cast<std::size_t>(col) * m + col];
      for (int k = 0; k < m; ++k) {
        mat[static_cast<std::size_t>(col) * m + k] /= piv;
        inv[static_cast<std::size_t>(col) * m + k] /= piv;
      }
      for (int r = 0; r < m; ++r) {
        if (r == col) continue;
        const double f = mat[static_cast<std::size_t>(r) * m + col];
        if (f == 0.0) continue;
        for (int k = 0; k < m; ++k) {
          mat[static_cast<std::size_t>(r) * m + k] -=
              f * mat[static_cast<std::size_t>(col) * m + k];
          inv[static_cast<std::size_t>(r) * m + k] -=
              f * inv[static_cast<std::size_t>(col) * m + k];
        }
      }
    }
    binv_ = std::move(inv);
    ++stats_.refactorizations;
    stats_.peakFillNonzeros =
        std::max(stats_.peakFillNonzeros, static_cast<long long>(m) * m);
    return true;
  }

  void ftran(std::vector<double>& v) const override {
    // x = Binv * b; Binv row i covers slot i.
    std::vector<double> x(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double* row = &binv_[static_cast<std::size_t>(i) * m_];
      double s = 0.0;
      for (int k = 0; k < m_; ++k) s += row[k] * v[static_cast<std::size_t>(k)];
      x[static_cast<std::size_t>(i)] = s;
    }
    v = std::move(x);
  }

  void ftranColumn(const std::vector<std::pair<int, double>>& col,
                   std::vector<double>& out) const override {
    // w[i] = sum over column entries of binv[i][row] * coef — the seed's
    // sparsity-exploiting loop, O(m * nnz(col)) instead of O(m^2).
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto& [row, coef] : col) {
      for (int i = 0; i < m_; ++i)
        out[static_cast<std::size_t>(i)] +=
            binv_[static_cast<std::size_t>(i) * m_ + row] * coef;
    }
  }

  void btran(std::vector<double>& v) const override {
    // y = Binv^T c; accumulate slot-major like the seed's dual loop so the
    // dense engine's floating-point behavior matches the pre-split code.
    std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      const double c = v[static_cast<std::size_t>(k)];
      if (c == 0.0) continue;
      const double* row = &binv_[static_cast<std::size_t>(k) * m_];
      for (int i = 0; i < m_; ++i) y[static_cast<std::size_t>(i)] += c * row[i];
    }
    v = std::move(y);
  }

  bool update(int r, const std::vector<double>& w) override {
    const double pivot = w[static_cast<std::size_t>(r)];
    if (std::fabs(pivot) < 1e-9) return false;
    double* pivotRowPtr = &binv_[static_cast<std::size_t>(r) * m_];
    const double invPivot = 1.0 / pivot;
    for (int k = 0; k < m_; ++k) pivotRowPtr[k] *= invPivot;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double f = w[static_cast<std::size_t>(i)];
      if (f == 0.0) continue;
      double* row = &binv_[static_cast<std::size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) row[k] -= f * pivotRowPtr[k];
    }
    ++stats_.etaUpdates;
    return true;
  }

  bool wantRefactorize() const override { return false; }

 private:
  int m_ = 0;
  std::vector<double> binv_;  // m x m row-major
};

}  // namespace

std::unique_ptr<ilp::BasisFactor> makeDenseInverseFactor() {
  return std::make_unique<DenseInverseFactor>();
}

}  // namespace hetpar::verify
