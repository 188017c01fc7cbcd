#include "plbhec/linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace plbhec::linalg {

double equilibrate_column(std::span<double> col) {
  double norm = 0.0;
  for (const double v : col) norm += v * v;
  norm = std::sqrt(norm);
  if (!(norm > 0.0)) return 1.0;
  const double factor = 1.0 / norm;
  for (double& v : col) v *= factor;
  return factor;
}

Reflector householder_reflector(std::span<double> col, std::size_t k) {
  PLBHEC_EXPECTS(k < col.size());
  const std::size_t m = col.size();
  // Householder vector for rows k..m-1.
  double norm = 0.0;
  for (std::size_t i = k; i < m; ++i) norm += col[i] * col[i];
  norm = std::sqrt(norm);
  if (norm == 0.0) return {};
  const double alpha = col[k] >= 0.0 ? -norm : norm;
  const double v0 = col[k] - alpha;
  // v = [v0, col(k+1..m-1)]; normalize so v[0] = 1 (stored implicitly).
  double vtv = v0 * v0;
  for (std::size_t i = k + 1; i < m; ++i) vtv += col[i] * col[i];
  if (vtv == 0.0) {
    col[k] = alpha;
    return {};
  }
  Reflector out;
  out.beta = 2.0 * v0 * v0 / vtv;  // beta for the v/v0-scaled vector
  out.reflects = true;
  const double inv_v0 = 1.0 / v0;
  for (std::size_t i = k + 1; i < m; ++i) col[i] *= inv_v0;
  col[k] = alpha;
  return out;
}

double householder_coefficient(std::span<const double> v, double beta,
                               std::size_t k, std::span<const double> target) {
  PLBHEC_EXPECTS(v.size() == target.size() && k < v.size());
  // H = I - beta v v^T with v[k] = 1.
  double s = target[k];
  for (std::size_t i = k + 1; i < v.size(); ++i) s += v[i] * target[i];
  return s * beta;
}

void householder_apply(std::span<const double> v, double beta, std::size_t k,
                       std::span<const double> src, std::span<double> dst) {
  PLBHEC_EXPECTS(dst.size() == src.size());
  const double s = householder_coefficient(v, beta, k, src);
  if (dst.data() != src.data())
    for (std::size_t i = 0; i < k; ++i) dst[i] = src[i];
  dst[k] = src[k] - s;
  for (std::size_t i = k + 1; i < v.size(); ++i) dst[i] = src[i] - s * v[i];
}

double rank_threshold(std::span<const std::span<const double>> r_cols,
                      double rank_tol) {
  double max_diag = 0.0;
  for (std::size_t k = 0; k < r_cols.size(); ++k)
    max_diag = std::max(max_diag, std::fabs(r_cols[k][k]));
  return rank_tol * (max_diag > 0.0 ? max_diag : 1.0);
}

std::size_t back_substitute(std::span<const std::span<const double>> r_cols,
                            std::span<const double> y, std::span<double> x,
                            double threshold) {
  const std::size_t n = r_cols.size();
  PLBHEC_EXPECTS(y.size() >= n && x.size() >= n);
  std::size_t rank = 0;
  for (std::size_t k = 0; k < n; ++k) x[k] = 0.0;
  // Back substitution on R, zeroing rank-deficient coordinates.
  for (std::size_t kk = n; kk-- > 0;) {
    const double diag = r_cols[kk][kk];
    if (std::fabs(diag) <= threshold) {
      x[kk] = 0.0;
      continue;
    }
    double acc = y[kk];
    for (std::size_t j = kk + 1; j < n; ++j) acc -= r_cols[j][kk] * x[j];
    x[kk] = acc / diag;
    ++rank;
  }
  return rank;
}

std::optional<LsSolution> least_squares(const Matrix& a,
                                        std::span<const double> b) {
  PLBHEC_EXPECTS(a.rows() == b.size());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (n == 0 || m < n) return std::nullopt;

  // Column-major copy, then the column scales, the reflector scalars and
  // Q^T b.
  Vector buffer(m * n + 2 * n + m);
  const std::span<double> all(buffer);
  std::vector<std::span<double>> cols(n);
  for (std::size_t c = 0; c < n; ++c) {
    cols[c] = all.subspan(c * m, m);
    for (std::size_t r = 0; r < m; ++r) cols[c][r] = a(r, c);
  }
  const std::span<double> col_scale = all.subspan(m * n, n);
  const std::span<double> beta = all.subspan(m * n + n, n);
  const std::span<double> y = all.subspan(m * n + 2 * n, m);

  // Column equilibration: scale each column to unit 2-norm so the wildly
  // different magnitudes of the basis functions (x^3 vs ln x) do not
  // destroy the factorization.
  double max_abs = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    col_scale[c] = equilibrate_column(cols[c]);
    for (const double v : cols[c]) max_abs = std::max(max_abs, std::fabs(v));
  }
  if (max_abs == 0.0) return std::nullopt;  // every column zero

  for (std::size_t k = 0; k < n; ++k) {
    const Reflector h = householder_reflector(cols[k], k);
    beta[k] = h.beta;
    if (!h.reflects) continue;
    for (std::size_t j = k + 1; j < n; ++j)
      householder_apply(cols[k], h.beta, k, cols[j], cols[j]);
  }
  // y = Q^T b by applying the reflections in order.
  for (std::size_t i = 0; i < m; ++i) y[i] = b[i];
  for (std::size_t k = 0; k < n; ++k)
    if (beta[k] != 0.0) householder_apply(cols[k], beta[k], k, y, y);

  const std::vector<std::span<const double>> r_cols(cols.begin(), cols.end());
  const double threshold = rank_threshold(r_cols);
  LsSolution sol;
  sol.coefficients.assign(n, 0.0);
  sol.rank = back_substitute(r_cols, y, sol.coefficients, threshold);

  double res = 0.0;
  for (std::size_t i = n; i < m; ++i) res += y[i] * y[i];
  // Add contributions from zeroed (rank-deficient) rows.
  for (std::size_t k = 0; k < n; ++k) {
    if (std::fabs(r_cols[k][k]) <= threshold) {
      double acc = y[k];
      for (std::size_t j = k + 1; j < n; ++j)
        acc -= r_cols[j][k] * sol.coefficients[j];
      res += acc * acc;
    }
  }
  sol.residual_norm = std::sqrt(res);
  for (std::size_t c = 0; c < n; ++c) sol.coefficients[c] *= col_scale[c];
  return sol;
}

}  // namespace plbhec::linalg
