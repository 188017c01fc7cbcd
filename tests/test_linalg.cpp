// Tests for the dense linear algebra kernels: Matrix ops, LU, QR least
// squares, Cholesky and the blocked GEMM, including property-style sweeps
// over sizes with randomized well-conditioned systems.

#include <gtest/gtest.h>

#include <cmath>

#include "plbhec/common/rng.hpp"
#include "plbhec/linalg/blas.hpp"
#include "plbhec/linalg/cholesky.hpp"
#include "plbhec/linalg/lu.hpp"
#include "plbhec/linalg/matrix.hpp"
#include "plbhec/linalg/qr.hpp"

namespace plbhec::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

/// Diagonally dominant => invertible.
Matrix random_dd_matrix(std::size_t n, Rng& rng) {
  Matrix m = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) m(i, i) += static_cast<double>(n);
  return m;
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i.frobenius_norm(), std::sqrt(3.0));
}

TEST(Matrix, Transpose) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, MatVec) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = matvec(m, std::vector<double>{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatVecTransposed) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = matvec_transposed(m, std::vector<double>{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Matrix, MatMulAgainstIdentity) {
  Rng rng(1);
  const Matrix a = random_matrix(4, 4, rng);
  const Matrix c = matmul(a, Matrix::identity(4));
  EXPECT_EQ(c, a);
}

TEST(Matrix, VectorHelpers) {
  std::vector<double> a{3.0, 4.0};
  std::vector<double> b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
  scale(a, 0.5);
  EXPECT_DOUBLE_EQ(a[0], 1.5);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
}

class LuSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSizes, SolveRecoversKnownSolution) {
  const std::size_t n = GetParam();
  Rng rng(n);
  const Matrix a = random_dd_matrix(n, rng);
  Vector x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  const Vector b = matvec(a, x_true);
  auto lu = Lu::factor(a);
  ASSERT_TRUE(lu.has_value());
  const Vector x = lu->solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

TEST(Lu, SingularReturnsNullopt) {
  Matrix m{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(Lu::factor(m).has_value());
}

TEST(Lu, Determinant) {
  Matrix m{{2.0, 0.0}, {0.0, 3.0}};
  auto lu = Lu::factor(m);
  ASSERT_TRUE(lu);
  EXPECT_NEAR(lu->determinant(), 6.0, 1e-12);
}

TEST(Lu, DeterminantWithPermutationSign) {
  Matrix m{{0.0, 1.0}, {1.0, 0.0}};  // det = -1
  auto lu = Lu::factor(m);
  ASSERT_TRUE(lu);
  EXPECT_NEAR(lu->determinant(), -1.0, 1e-12);
}

TEST(Lu, MatrixSolve) {
  Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  auto lu = Lu::factor(a);
  ASSERT_TRUE(lu);
  const Matrix x = lu->solve(b);
  EXPECT_DOUBLE_EQ(x(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(1, 1), 3.0);
}

TEST(Lu, OneShotSolveHelper) {
  Matrix a{{3.0}};
  auto x = solve(a, std::vector<double>{6.0});
  ASSERT_TRUE(x);
  EXPECT_DOUBLE_EQ((*x)[0], 2.0);
}

class QrShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(QrShapes, LeastSquaresMatchesNormalEquations) {
  const auto [m, n] = GetParam();
  Rng rng(m * 100 + n);
  const Matrix a = random_matrix(m, n, rng);
  Vector b(m);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  auto sol = least_squares(a, b);
  ASSERT_TRUE(sol);

  // Residual must be orthogonal to the column space: A^T (A c - b) = 0.
  Vector r = matvec(a, sol->coefficients);
  for (std::size_t i = 0; i < m; ++i) r[i] -= b[i];
  const Vector atr = matvec_transposed(a, r);
  for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{3, 1},
                      std::pair<std::size_t, std::size_t>{4, 2},
                      std::pair<std::size_t, std::size_t>{8, 3},
                      std::pair<std::size_t, std::size_t>{20, 5},
                      std::pair<std::size_t, std::size_t>{50, 8}));

TEST(Qr, ExactSystemSolvedExactly) {
  Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  // y = 2 + 0.5 x at x = 1,2,3
  Vector b{2.5, 3.0, 3.5};
  auto sol = least_squares(a, b);
  ASSERT_TRUE(sol);
  EXPECT_NEAR(sol->coefficients[0], 2.0, 1e-10);
  EXPECT_NEAR(sol->coefficients[1], 0.5, 1e-10);
  EXPECT_NEAR(sol->residual_norm, 0.0, 1e-10);
}

TEST(Qr, RankDeficientGetsZeroCoefficient) {
  // Second column is a duplicate of the first.
  Matrix a{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  Vector b{1.0, 2.0, 3.0};
  auto sol = least_squares(a, b);
  ASSERT_TRUE(sol);
  // Fit must still be exact even with the redundant column.
  const Vector pred = matvec(a, sol->coefficients);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(pred[i], b[i], 1e-9);
}

TEST(Qr, ZeroMatrixReturnsNullopt) {
  Matrix a(3, 2, 0.0);
  Vector b{1.0, 1.0, 1.0};
  EXPECT_FALSE(least_squares(a, b).has_value());
}

TEST(Qr, UnderdeterminedReturnsNullopt) {
  Matrix a(1, 2, 1.0);
  Vector b{1.0};
  EXPECT_FALSE(least_squares(a, b).has_value());
}

TEST(Cholesky, SolvesSpdSystem) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  auto ch = Cholesky::factor(a);
  ASSERT_TRUE(ch);
  const Vector x = ch->solve(std::vector<double>{8.0, 7.0});
  // Verify A x = b.
  const Vector b = matvec(a, x);
  EXPECT_NEAR(b[0], 8.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
}

TEST(Cholesky, AcceptsIdentity) {
  EXPECT_TRUE(Cholesky::factor(Matrix::identity(5)).has_value());
}

class GemmSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GemmSizes, MatchesNaiveReference) {
  const std::size_t n = GetParam();
  Rng rng(n + 77);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const Matrix expected = matmul(a, b);

  std::vector<double> c(n * n, 0.0);
  blas::gemm(n, n, n, {a.data(), n * n}, {b.data(), n * n}, c);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(c[i * n + j], expected(i, j), 1e-9) << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmSizes,
                         ::testing::Values(1, 2, 7, 16, 33, 64, 100));

TEST(Gemm, ParallelMatchesSerial) {
  const std::size_t n = 96;
  Rng rng(3);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  std::vector<double> c1(n * n, 0.0), c2(n * n, 0.0);
  blas::gemm(n, n, n, {a.data(), n * n}, {b.data(), n * n}, c1);
  blas::gemm_parallel(n, n, n, {a.data(), n * n}, {b.data(), n * n}, c2, 4);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_DOUBLE_EQ(c1[i], c2[i]);
}

TEST(Gemm, AccumulatesIntoC) {
  std::vector<double> a{1.0}, b{2.0}, c{10.0};
  blas::gemm(1, 1, 1, a, b, c);
  EXPECT_DOUBLE_EQ(c[0], 12.0);
}

TEST(Gemm, RectangularShapes) {
  // (2x3) * (3x1)
  std::vector<double> a{1, 2, 3, 4, 5, 6};
  std::vector<double> b{1, 1, 1};
  std::vector<double> c(2, 0.0);
  blas::gemm(2, 1, 3, a, b, c);
  EXPECT_DOUBLE_EQ(c[0], 6.0);
  EXPECT_DOUBLE_EQ(c[1], 15.0);
}

}  // namespace
}  // namespace plbhec::linalg
