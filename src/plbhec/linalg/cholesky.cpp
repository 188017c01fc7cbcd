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
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= l[j * n + k] * l[j * n + k];
    if (d <= tol) return false;
    const double ljj = std::sqrt(d);
    l[j * n + j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= l[i * n + k] * l[j * n + k];
      l[i * n + j] = s * inv;
    }
  }
  return true;
}

/// Solves L L^T x = b in place (`x` holds b on entry) from a
/// cholesky_factor() factor `l`.
void cholesky_solve(std::span<const double> l, std::size_t n,
                    std::span<double> x) {
  PLBHEC_EXPECTS(l.size() >= n * n && x.size() >= n);
  // Forward substitution L y = b, then back substitution L^T x = y, both
  // overwriting x entry by entry after its last read.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l[i * n + j] * x[j];
    x[i] = acc / l[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l[j * n + ii] * x[j];
    x[ii] = acc / l[ii * n + ii];
  }
}

}  // namespace

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
  cholesky_solve({l_.data(), n * n}, n, x);
  return x;
}

bool is_positive_definite(const Matrix& a) {
  return Cholesky::factor(a).has_value();
}

std::optional<double> solve_equilibrated_spd_in_place(
    std::span<const double> g, std::size_t n, std::span<const double> b,
    std::span<double> x, std::span<double> scratch, double rcond_floor,
    double refine_tol) {
  PLBHEC_EXPECTS(g.size() >= n * n && b.size() == n && x.size() >= n);
  PLBHEC_EXPECTS(scratch.size() >= spd_scratch(n));
  if (n == 0) return std::nullopt;
  const std::span<double> d = scratch.subspan(0, n);
  const std::span<double> bs = scratch.subspan(n, n);
  const std::span<double> r = scratch.subspan(2 * n, n);
  const std::span<double> gs = scratch.subspan(3 * n, n * n);
  const std::span<double> l = scratch.subspan(3 * n + n * n, n * n);

  for (std::size_t j = 0; j < n; ++j) {
    const double gjj = g[j * n + j];
    if (!(gjj > 0.0) || !std::isfinite(gjj)) return std::nullopt;
    d[j] = 1.0 / std::sqrt(gjj);
  }

  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      gs[i * n + j] = g[i * n + j] * d[i] * d[j];

  if (!cholesky_factor(gs, l, n)) return std::nullopt;

  // Cholesky pivots of an SPD matrix lie in [lambda_min, lambda_max]; on
  // the unit-diagonal system lambda_max <= n, so the smallest pivot over n
  // bounds the inverse condition number cheaply.
  double min_pivot = std::numeric_limits<double>::infinity();
  double max_pivot = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double p = l[j * n + j] * l[j * n + j];
    min_pivot = std::min(min_pivot, p);
    max_pivot = std::max(max_pivot, p);
  }
  const double rcond =
      min_pivot / (std::max(max_pivot, 1.0) * static_cast<double>(n));
  if (rcond < rcond_floor) return std::nullopt;

  for (std::size_t i = 0; i < n; ++i) {
    bs[i] = b[i] * d[i];
    x[i] = bs[i];
  }
  cholesky_solve(l, n, x);

  // One refinement step in the scaled system; the correction magnitude
  // doubles as a direct accuracy certificate.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = bs[i];
    for (std::size_t j = 0; j < n; ++j) acc -= gs[i * n + j] * x[j];
    r[i] = acc;
  }
  cholesky_solve(l, n, r);
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
  Vector scratch(spd_scratch(n));
  SpdSolve out;
  out.x.resize(n);
  const auto rcond = solve_equilibrated_spd_in_place(
      {g.data(), n * n}, n, b, out.x, scratch, rcond_floor, refine_tol);
  if (!rcond) return std::nullopt;
  out.rcond_estimate = *rcond;
  return out;
}

}  // namespace plbhec::linalg
