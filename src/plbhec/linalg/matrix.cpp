#include "plbhec/linalg/matrix.hpp"

#include <cmath>

namespace plbhec::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    PLBHEC_EXPECTS(r.size() == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Vector matvec(const Matrix& a, std::span<const double> x) {
  PLBHEC_EXPECTS(a.cols() == x.size());
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    const auto row = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector matvec_transposed(const Matrix& a, std::span<const double> x) {
  PLBHEC_EXPECTS(a.rows() == x.size());
  Vector y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    const double xr = x[r];
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  PLBHEC_EXPECTS(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const auto brow = b.row(k);
      auto crow = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

double dot(std::span<const double> a, std::span<const double> b) {
  PLBHEC_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm_inf(std::span<const double> a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

void scale(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

}  // namespace plbhec::linalg
