#include "plbhec/linalg/qr.hpp"

#include <cmath>
#include <limits>

namespace plbhec::linalg {
namespace {

/// Householder QR of the m x n row-major matrix `a` (m >= n), in place: R in
/// the upper triangle, the Householder vectors below it, the Householder
/// scalars in `beta` (n entries).
void householder_qr(std::span<double> a, std::size_t m, std::size_t n,
                    std::span<double> beta) {
  PLBHEC_EXPECTS(m >= n);
  PLBHEC_EXPECTS(a.size() >= m * n && beta.size() >= n);
  const auto at = [&](std::size_t i, std::size_t j) -> double& {
    return a[i * n + j];
  };

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += at(i, k) * at(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      beta[k] = 0.0;
      continue;
    }
    const double alpha = at(k, k) >= 0.0 ? -norm : norm;
    const double v0 = at(k, k) - alpha;
    // v = [v0, a(k+1..m-1, k)]; normalize so v[0] = 1 (stored implicitly).
    double vtv = v0 * v0;
    for (std::size_t i = k + 1; i < m; ++i) vtv += at(i, k) * at(i, k);
    if (vtv == 0.0) {
      beta[k] = 0.0;
      at(k, k) = alpha;
      continue;
    }
    beta[k] = 2.0 * v0 * v0 / vtv;  // beta for the v/v0-scaled vector
    const double inv_v0 = 1.0 / v0;
    for (std::size_t i = k + 1; i < m; ++i) at(i, k) *= inv_v0;
    at(k, k) = alpha;

    // Apply H = I - beta v v^T to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = at(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += at(i, k) * at(i, j);
      s *= beta[k];
      at(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) at(i, j) -= s * at(i, k);
    }
  }
}

/// Minimizes ||A x - b||_2 from a householder_qr() factorization `qr`,
/// writing the n coefficients to `x` and using `y` (m entries) as scratch.
/// Rank handling as in Qr::solve.
LsResidual householder_solve(std::span<const double> qr,
                             std::span<const double> beta, std::size_t m,
                             std::size_t n, std::span<const double> b,
                             std::span<double> x, std::span<double> y,
                             double rank_tol = 1e-10) {
  PLBHEC_EXPECTS(qr.size() >= m * n && beta.size() >= n);
  PLBHEC_EXPECTS(b.size() == m && y.size() >= m && x.size() >= n);
  const auto at = [&](std::size_t i, std::size_t j) { return qr[i * n + j]; };

  // y = Q^T b by applying the stored Householder reflections in order.
  for (std::size_t i = 0; i < m; ++i) y[i] = b[i];
  for (std::size_t k = 0; k < n; ++k) {
    if (beta[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < m; ++i) s += at(i, k) * y[i];
    s *= beta[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) y[i] -= s * at(i, k);
  }

  double max_diag = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    max_diag = std::max(max_diag, std::fabs(at(k, k)));
  const double tol = rank_tol * (max_diag > 0.0 ? max_diag : 1.0);

  LsResidual out;
  for (std::size_t k = 0; k < n; ++k) x[k] = 0.0;
  // Back substitution on R, zeroing rank-deficient coordinates.
  for (std::size_t kk = n; kk-- > 0;) {
    if (std::fabs(at(kk, kk)) <= tol) {
      x[kk] = 0.0;
      continue;
    }
    double acc = y[kk];
    for (std::size_t j = kk + 1; j < n; ++j) acc -= at(kk, j) * x[j];
    x[kk] = acc / at(kk, kk);
    ++out.rank;
  }

  double res = 0.0;
  for (std::size_t i = n; i < m; ++i) res += y[i] * y[i];
  // Add contributions from zeroed (rank-deficient) rows.
  for (std::size_t k = 0; k < n; ++k) {
    if (std::fabs(at(k, k)) <= tol) {
      double acc = y[k];
      for (std::size_t j = k + 1; j < n; ++j) acc -= at(k, j) * x[j];
      res += acc * acc;
    }
  }
  out.residual_norm = std::sqrt(res);
  return out;
}

}  // namespace

Qr Qr::factor(Matrix a) {
  Vector beta(a.cols(), 0.0);
  householder_qr({a.data(), a.rows() * a.cols()}, a.rows(), a.cols(), beta);
  return Qr(std::move(a), std::move(beta));
}

LsSolution Qr::solve(std::span<const double> b, double rank_tol) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  PLBHEC_EXPECTS(b.size() == m);
  LsSolution sol;
  sol.coefficients.assign(n, 0.0);
  Vector y(m);
  const LsResidual r = householder_solve({qr_.data(), m * n}, beta_, m, n, b,
                                         sol.coefficients, y, rank_tol);
  sol.residual_norm = r.residual_norm;
  sol.rank = r.rank;
  return sol;
}

double Qr::r_diag_ratio() const {
  const std::size_t n = qr_.cols();
  if (n == 0) return 0.0;
  double mx = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    const double d = std::fabs(qr_(k, k));
    mx = std::max(mx, d);
    mn = std::min(mn, d);
  }
  return mn == 0.0 ? std::numeric_limits<double>::infinity() : mx / mn;
}

std::optional<LsResidual> least_squares_in_place(std::span<double> a,
                                                 std::size_t m, std::size_t n,
                                                 std::span<const double> b,
                                                 std::span<double> x,
                                                 std::span<double> scratch) {
  PLBHEC_EXPECTS(m == b.size());
  if (n == 0 || m < n) return std::nullopt;
  PLBHEC_EXPECTS(a.size() >= m * n && x.size() >= n);
  PLBHEC_EXPECTS(scratch.size() >= least_squares_scratch(m, n));
  const std::span<double> col_scale = scratch.subspan(0, n);
  const std::span<double> beta = scratch.subspan(n, n);
  const std::span<double> y = scratch.subspan(2 * n, m);

  // Column equilibration: scale each column to unit 2-norm so the wildly
  // different magnitudes of the basis functions (x^3 vs ln x) do not destroy
  // the factorization.
  equilibrate_columns(a, m, n, col_scale);
  double max_abs = 0.0;
  for (std::size_t i = 0; i < m * n; ++i)
    max_abs = std::max(max_abs, std::fabs(a[i]));
  if (max_abs == 0.0) return std::nullopt;  // every column zero

  householder_qr(a, m, n, beta);
  const LsResidual r = householder_solve(a, beta, m, n, b, x, y);
  for (std::size_t c = 0; c < n; ++c) x[c] *= col_scale[c];
  return r;
}

std::optional<LsSolution> least_squares(const Matrix& a,
                                        std::span<const double> b) {
  PLBHEC_EXPECTS(a.rows() == b.size());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix scaled = a;
  Vector scratch(least_squares_scratch(m, n));
  LsSolution sol;
  sol.coefficients.assign(n, 0.0);
  const auto r = least_squares_in_place({scaled.data(), m * n}, m, n, b,
                                        sol.coefficients, scratch);
  if (!r) return std::nullopt;
  sol.residual_norm = r->residual_norm;
  sol.rank = r->rank;
  return sol;
}

}  // namespace plbhec::linalg
