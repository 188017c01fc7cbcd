#pragma once
/// \file matrix.hpp
/// Dense row-major matrix and vector types. Sized for the library's needs:
/// curve-fitting design matrices (tens of rows, <10 columns), KKT systems for
/// the interior-point solver (a few dozen unknowns) and the real blocked-GEMM
/// kernel of the matrix-multiplication application.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "plbhec/common/contracts.hpp"

namespace plbhec::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    PLBHEC_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    PLBHEC_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    PLBHEC_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    PLBHEC_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  /// Max absolute entry.
  [[nodiscard]] double max_abs() const;

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A x. Sizes must agree.
[[nodiscard]] Vector matvec(const Matrix& a, std::span<const double> x);
/// y = A^T x.
[[nodiscard]] Vector matvec_transposed(const Matrix& a,
                                       std::span<const double> x);
/// C = A B (naive; for small systems — use blas::gemm for the app kernel).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
[[nodiscard]] double norm2(std::span<const double> a);
[[nodiscard]] double norm_inf(std::span<const double> a);
/// x *= alpha
void scale(std::span<double> x, double alpha);

}  // namespace plbhec::linalg
