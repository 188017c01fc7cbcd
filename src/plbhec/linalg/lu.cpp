#include "plbhec/linalg/lu.hpp"

#include <cmath>

namespace plbhec::linalg {

std::optional<Lu> Lu::factor(Matrix a, double pivot_tol) {
  PLBHEC_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude entry in column k.
    std::size_t piv = k;
    double piv_val = std::fabs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(a(r, k));
      if (v > piv_val) {
        piv_val = v;
        piv = r;
      }
    }
    if (piv_val < pivot_tol) return std::nullopt;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(piv, c));
      std::swap(perm[k], perm[piv]);
      sign = -sign;
    }
    const double inv_piv = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = a(r, k) * inv_piv;
      a(r, k) = m;  // store L factor in-place
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= m * a(k, c);
    }
  }
  return Lu(std::move(a), std::move(perm), sign);
}

Vector Lu::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  PLBHEC_EXPECTS(b.size() == n);
  Vector x(n);
  // Apply permutation and forward-substitute L y = P b.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back-substitute U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  PLBHEC_EXPECTS(b.rows() == lu_.rows());
  Matrix x(b.rows(), b.cols());
  Vector col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const Vector sol = solve(col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

double Lu::determinant() const {
  double det = static_cast<double>(perm_sign_);
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

std::optional<Vector> solve(const Matrix& a, std::span<const double> b) {
  auto lu = Lu::factor(a);
  if (!lu) return std::nullopt;
  return lu->solve(b);
}

}  // namespace plbhec::linalg
