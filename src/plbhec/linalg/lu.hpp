#pragma once
/// \file lu.hpp
/// LU factorization with partial pivoting. Used to solve the (symmetric
/// indefinite, diagonally regularized) KKT systems of the interior-point
/// solver and for general small linear solves.

#include <optional>

#include "plbhec/linalg/matrix.hpp"

namespace plbhec::linalg {

/// PA = LU factorization holder.
class Lu {
 public:
  /// Factorizes `a` (square). Returns std::nullopt if the matrix is
  /// numerically singular (a pivot below `pivot_tol` in magnitude).
  [[nodiscard]] static std::optional<Lu> factor(Matrix a,
                                                double pivot_tol = 1e-13);

  /// Solves A x = b.
  [[nodiscard]] Vector solve(std::span<const double> b) const;

  /// Solves A X = B column-by-column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// det(A) (product of pivots with sign of the permutation).
  [[nodiscard]] double determinant() const;

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

 private:
  Lu(Matrix lu, std::vector<std::size_t> perm, int sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), perm_sign_(sign) {}

  Matrix lu_;                        // combined L (unit diag) and U factors
  std::vector<std::size_t> perm_;    // row permutation
  int perm_sign_ = 1;
};

/// Convenience one-shot solve; returns nullopt when singular.
[[nodiscard]] std::optional<Vector> solve(const Matrix& a,
                                          std::span<const double> b);

}  // namespace plbhec::linalg
