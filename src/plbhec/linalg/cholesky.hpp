#pragma once
/// \file cholesky.hpp
/// Cholesky (LL^T) factorization for symmetric positive-definite systems.
/// Used for the normal-equation fallback in curve fitting and as a cheap
/// positive-definiteness probe in the interior-point Hessian regularization.

#include <optional>

#include "plbhec/linalg/matrix.hpp"

namespace plbhec::linalg {

class Cholesky {
 public:
  /// Factorizes a symmetric positive-definite matrix. Returns nullopt when
  /// a non-positive pivot is met (matrix not PD within tolerance).
  [[nodiscard]] static std::optional<Cholesky> factor(const Matrix& a,
                                                      double tol = 0.0);

  [[nodiscard]] Vector solve(std::span<const double> b) const;

  [[nodiscard]] std::size_t size() const { return l_.rows(); }
  [[nodiscard]] const Matrix& l() const { return l_; }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // lower-triangular factor
};

/// True iff `a` (assumed symmetric) is positive definite.
[[nodiscard]] bool is_positive_definite(const Matrix& a);

/// Result of an equilibrated SPD solve.
struct SpdSolve {
  Vector x;                     ///< solution of G x = b
  double rcond_estimate = 0.0;  ///< pivot-based estimate of 1/cond of the
                                ///< unit-diagonal scaled system
};

/// Solves the SPD system G x = b after symmetric diagonal equilibration
/// (scaling G to unit diagonal, which undoes the magnitude disparities of
/// Gram matrices built from mixed basis functions), with one step of
/// iterative refinement. Returns nullopt when G is not positive definite,
/// when the Cholesky pivots of the scaled system signal conditioning worse
/// than `rcond_floor`, or when the refinement correction shows the solution
/// is not trustworthy to ~`refine_tol` relative — callers should then fall
/// back to an orthogonal factorization of the original least-squares
/// problem instead of trusting squared-condition normal equations. The
/// default floor of 1e-7 caps the solve's forward error near
/// cond(G) * eps ~ 1e-9, keeping Gram-path coefficients within 1e-8 of a
/// QR solve of the unsquared system.
[[nodiscard]] std::optional<SpdSolve> solve_equilibrated_spd(
    const Matrix& g, std::span<const double> b, double rcond_floor = 1e-7,
    double refine_tol = 1e-9);

/// Scratch doubles solve_equilibrated_spd_in_place() needs for an n x n
/// system.
[[nodiscard]] constexpr std::size_t spd_scratch(std::size_t n) {
  return 2 * n * n + 3 * n;
}

/// solve_equilibrated_spd() on caller storage, for callers that solve many
/// small systems (the curve fitter's subset search) in fixed-size arrays:
/// `g` is n x n row-major, the solution goes to `x` (n entries) and
/// `scratch` holds at least spd_scratch(n) doubles. Returns the rcond
/// estimate, or nullopt in the cases solve_equilibrated_spd() does.
/// Cholesky and solve_equilibrated_spd() run on the same in-place
/// factorization.
[[nodiscard]] std::optional<double> solve_equilibrated_spd_in_place(
    std::span<const double> g, std::size_t n, std::span<const double> b,
    std::span<double> x, std::span<double> scratch, double rcond_floor = 1e-7,
    double refine_tol = 1e-9);

}  // namespace plbhec::linalg
