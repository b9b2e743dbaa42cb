// Unit tests for the dense matrix/vector substrate.
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

namespace sidis::linalg {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstruction) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(0, 2), 3);
  EXPECT_DOUBLE_EQ(m(1, 0), 4);
  EXPECT_DOUBLE_EQ(m(1, 2), 6);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndDiagonal) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3.trace(), 3.0);
  const Matrix d = Matrix::diagonal({2, 5});
  EXPECT_DOUBLE_EQ(d(0, 0), 2);
  EXPECT_DOUBLE_EQ(d(1, 1), 5);
  EXPECT_DOUBLE_EQ(d(0, 1), 0);
}

TEST(Matrix, FromRows) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6);
}

TEST(Matrix, FromRowsRaggedThrows) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, RowSpanIsMutable) {
  Matrix m(2, 2, 0.0);
  auto row = m.row(1);
  row[0] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, AdditionSubtraction) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{4, 3}, {2, 1}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5);
  const Matrix diff = sum - b;
  EXPECT_EQ(diff, a);
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(a - b, std::invalid_argument);
  EXPECT_THROW(b * a, std::invalid_argument);
}

TEST(Matrix, ProductAgainstHandComputed) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 19);
  EXPECT_DOUBLE_EQ(p(0, 1), 22);
  EXPECT_DOUBLE_EQ(p(1, 0), 43);
  EXPECT_DOUBLE_EQ(p(1, 1), 50);
}

TEST(Matrix, ProductWithIdentityIsIdentityOp) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> d(-1, 1);
  Matrix m(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) m(i, j) = d(rng);
  }
  EXPECT_TRUE(Matrix::approx_equal(m * Matrix::identity(4), m, 1e-12));
  EXPECT_TRUE(Matrix::approx_equal(Matrix::identity(4) * m, m, 1e-12));
}

TEST(Matrix, MatVecProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const Vector v = a * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(v[0], 3);
  EXPECT_DOUBLE_EQ(v[1], 7);
}

TEST(Matrix, FrobeniusNormAndMaxAbs) {
  const Matrix m{{3, 4}, {0, 0}};
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(Matrix, TraceRequiresSquare) {
  EXPECT_THROW(Matrix(2, 3).trace(), std::invalid_argument);
}

TEST(VectorOps, AddSubScaleDot) {
  const Vector a{1, 2, 3};
  const Vector b{4, 5, 6};
  EXPECT_EQ(add(a, b), (Vector{5, 7, 9}));
  EXPECT_EQ(sub(b, a), (Vector{3, 3, 3}));
  EXPECT_EQ(scale(a, 2.0), (Vector{2, 4, 6}));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 27.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  EXPECT_THROW(add(Vector{1}, Vector{1, 2}), std::invalid_argument);
  EXPECT_THROW(dot(Vector{1}, Vector{1, 2}), std::invalid_argument);
}

TEST(RowStats, MeanOfRows) {
  const Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Vector mean = row_mean(m);
  EXPECT_DOUBLE_EQ(mean[0], 3.0);
  EXPECT_DOUBLE_EQ(mean[1], 4.0);
}

TEST(RowStats, CovarianceOfKnownData) {
  // Perfectly correlated columns: cov = [[1,1],[1,1]] * var.
  const Matrix m{{0, 0}, {1, 1}, {2, 2}};
  const Matrix cov = row_covariance(m);
  EXPECT_NEAR(cov(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 1.0, 1e-12);
}

TEST(RowStats, CovarianceIsSymmetricPsd) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> d(0, 1);
  Matrix m(40, 5);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = d(rng);
  }
  const Matrix cov = row_covariance(m);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GE(cov(i, i), 0.0);
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(cov(i, j), cov(j, i));
  }
}

TEST(RowStats, CovarianceNeedsTwoRows) {
  EXPECT_THROW(row_covariance(Matrix(1, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace sidis::linalg
