#include "plbhec/linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace plbhec::linalg {
namespace {

/// Writes the lower-triangular Cholesky factor of the n x n row-major SPD
/// matrix `a` into the lower triangle of `l` (its strict upper triangle is
/// neither read nor written). Returns false when a pivot is <= `tol`.
bool cholesky_factor(std::span<const double> a, std::span<double> l,
                     std::size_t n, double tol = 0.0) {
  PLBHEC_EXPECTS(a.size() >= n * n && l.size() >= n * n);
  for (std::size_t i = 0; i < n; ++i)
    if (!cholesky_row(a.subspan(i * n, i + 1), l, n, i, tol)) return false;
  return true;
}

/// Solves L^T x = y in place (`x` holds y on entry).
void back_substitute(std::span<const double> l, std::size_t ld, std::size_t n,
                     std::span<double> x) {
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l[j * ld + ii] * x[j];
    x[ii] = acc / l[ii * ld + ii];
  }
}

/// Solves L L^T x = b in place (`x` holds b on entry) from a factor `l`
/// at leading dimension `ld`.
void cholesky_solve(std::span<const double> l, std::size_t ld, std::size_t n,
                    std::span<double> x) {
  PLBHEC_EXPECTS(l.size() >= (n - 1) * ld + n && x.size() >= n);
  // Forward substitution L y = b, then back substitution L^T x = y, both
  // overwriting x entry by entry after its last read.
  for (std::size_t i = 0; i < n; ++i) x[i] = forward_entry(l, ld, i, x[i], x);
  back_substitute(l, ld, n, x);
}

}  // namespace

bool cholesky_row(std::span<const double> a_row, std::span<double> l,
                  std::size_t ld, std::size_t i, double tol) {
  PLBHEC_EXPECTS(a_row.size() > i && l.size() >= i * ld + i + 1);
  const std::span<double> row = l.subspan(i * ld, i + 1);
  for (std::size_t j = 0; j < i; ++j) {
    const std::span<const double> lj = l.subspan(j * ld, j + 1);
    double s = a_row[j];
    for (std::size_t k = 0; k < j; ++k) s -= row[k] * lj[k];
    row[j] = s * (1.0 / lj[j]);
  }
  double d = a_row[i];
  for (std::size_t k = 0; k < i; ++k) d -= row[k] * row[k];
  if (d <= tol) return false;
  row[i] = std::sqrt(d);
  return true;
}

double forward_entry(std::span<const double> l, std::size_t ld, std::size_t i,
                     double b_i, std::span<const double> y) {
  const std::span<const double> row = l.subspan(i * ld, i + 1);
  double acc = b_i;
  for (std::size_t j = 0; j < i; ++j) acc -= row[j] * y[j];
  return acc / row[i];
}

std::optional<Cholesky> Cholesky::factor(const Matrix& a, double tol) {
  PLBHEC_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix l(n, n);
  if (!cholesky_factor({a.data(), n * n}, {l.data(), n * n}, n, tol))
    return std::nullopt;
  return Cholesky(std::move(l));
}

Vector Cholesky::solve(std::span<const double> b) const {
  const std::size_t n = l_.rows();
  PLBHEC_EXPECTS(b.size() == n);
  Vector x(b.begin(), b.end());
  if (n > 0) cholesky_solve({l_.data(), n * n}, n, n, x);
  return x;
}

std::optional<double> finish_equilibrated_spd(
    std::span<const double> gs, std::span<const double> l, std::size_t ld,
    std::size_t n, std::span<const double> d, std::span<const double> bs,
    std::span<double> x, std::span<double> r, double rcond_floor,
    double refine_tol) {
  PLBHEC_EXPECTS(n > 0 && ld >= n);
  PLBHEC_EXPECTS(gs.size() >= (n - 1) * ld + n && l.size() >= (n - 1) * ld + n);
  PLBHEC_EXPECTS(d.size() >= n && bs.size() >= n && x.size() >= n &&
                 r.size() >= n);

  // Cholesky pivots of an SPD matrix lie in [lambda_min, lambda_max]; on
  // the unit-diagonal system lambda_max <= n, so the smallest pivot over n
  // bounds the inverse condition number cheaply.
  double min_pivot = std::numeric_limits<double>::infinity();
  double max_pivot = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double p = l[j * ld + j] * l[j * ld + j];
    min_pivot = std::min(min_pivot, p);
    max_pivot = std::max(max_pivot, p);
  }
  const double rcond =
      min_pivot / (std::max(max_pivot, 1.0) * static_cast<double>(n));
  if (rcond < rcond_floor) return std::nullopt;

  back_substitute(l, ld, n, x);

  // One refinement step in the scaled system; the correction magnitude
  // doubles as a direct accuracy certificate.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = bs[i];
    for (std::size_t j = 0; j < n; ++j) acc -= gs[i * ld + j] * x[j];
    r[i] = acc;
  }
  cholesky_solve(l, ld, n, r);
  double nx = 0.0;
  double ndx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    nx += x[i] * x[i];
    ndx += r[i] * r[i];
    x[i] += r[i];
  }
  if (std::sqrt(ndx) > refine_tol * std::max(std::sqrt(nx), 1e-300))
    return std::nullopt;

  for (std::size_t i = 0; i < n; ++i) x[i] *= d[i];
  return rcond;
}

std::optional<SpdSolve> solve_equilibrated_spd(const Matrix& g,
                                               std::span<const double> b,
                                               double rcond_floor,
                                               double refine_tol) {
  PLBHEC_EXPECTS(g.rows() == g.cols());
  PLBHEC_EXPECTS(b.size() == g.rows());
  const std::size_t n = g.rows();
  if (n == 0) return std::nullopt;
  // d, bs and the refinement residual, then the scaled matrix and its
  // factor.
  Vector scratch(2 * n * n + 3 * n);
  const std::span<double> all(scratch);
  const std::span<double> d = all.subspan(0, n);
  const std::span<double> bs = all.subspan(n, n);
  const std::span<double> r = all.subspan(2 * n, n);
  const std::span<double> gs = all.subspan(3 * n, n * n);
  const std::span<double> l = all.subspan(3 * n + n * n, n * n);

  for (std::size_t j = 0; j < n; ++j) {
    const double gjj = g(j, j);
    if (!(gjj > 0.0) || !std::isfinite(gjj)) return std::nullopt;
    d[j] = 1.0 / std::sqrt(gjj);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) gs[i * n + j] = g(i, j) * d[i] * d[j];

  SpdSolve out;
  out.x.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!cholesky_row(gs.subspan(i * n, i + 1), l, n, i)) return std::nullopt;
    bs[i] = b[i] * d[i];
    out.x[i] = forward_entry(l, n, i, bs[i], out.x);
  }
  const auto rcond = finish_equilibrated_spd(gs, l, n, n, d, bs, out.x, r,
                                             rcond_floor, refine_tol);
  if (!rcond) return std::nullopt;
  out.rcond_estimate = *rcond;
  return out;
}

}  // namespace plbhec::linalg
