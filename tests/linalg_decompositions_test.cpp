// Unit tests for Cholesky / LU factorizations and the tridiagonal-QL
// symmetric eigensolver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "linalg/decompositions.hpp"
#include "linalg/eigen.hpp"

namespace sidis::linalg {
namespace {

Matrix random_spd(std::size_t n, std::mt19937_64& rng) {
  std::normal_distribution<double> d(0, 1);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = d(rng);
  }
  Matrix spd = a * a.transposed();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

/// Largest absolute row sum of A V - V diag(values) (the infinity norm).
double residual_inf(const Matrix& a, const EigenDecomposition& e) {
  const Matrix av = a * e.vectors;
  double worst = 0.0;
  for (std::size_t r = 0; r < av.rows(); ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < av.cols(); ++c) {
      row += std::abs(av(r, c) - e.vectors(r, c) * e.values[c]);
    }
    worst = std::max(worst, row);
  }
  return worst;
}

/// Largest absolute entry of V^T V - I.
double orthogonality_error(const Matrix& v) {
  const Matrix vtv = v.transposed() * v;
  double worst = 0.0;
  for (std::size_t r = 0; r < vtv.rows(); ++r) {
    for (std::size_t c = 0; c < vtv.cols(); ++c) {
      worst = std::max(worst, std::abs(vtv(r, c) - (r == c ? 1.0 : 0.0)));
    }
  }
  return worst;
}

/// Q diag(lambda) Q^T with Q a product of `reflectors` seeded Householder
/// reflectors, each applied two-sided as A <- H A H in O(n^2).
Matrix known_spectrum(const Vector& lambda, int reflectors, std::mt19937_64& rng) {
  const std::size_t n = lambda.size();
  std::normal_distribution<double> d(0, 1);
  Matrix a = Matrix::diagonal(lambda);
  for (int h = 0; h < reflectors; ++h) {
    Vector u(n);
    for (double& x : u) x = d(rng);
    const double norm = std::sqrt(dot(u, u));
    for (double& x : u) x /= norm;
    // H A H = A - 2 u w^T - 2 w u^T + 4 (u^T w) u u^T, with w = A u.
    const Vector w = a * u;
    const double uw = dot(u, w);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) += -2.0 * u[i] * w[j] - 2.0 * w[i] * u[j] + 4.0 * uw * u[i] * u[j];
      }
    }
  }
  return a;
}

TEST(Cholesky, ReconstructsInput) {
  std::mt19937_64 rng(3);
  const Matrix a = random_spd(6, rng);
  const Cholesky chol = Cholesky::compute(a);
  ASSERT_TRUE(chol.valid);
  EXPECT_TRUE(Matrix::approx_equal(chol.l * chol.l.transposed(), a, 1e-9));
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::compute(a).valid);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_FALSE(Cholesky::compute(Matrix(2, 3)).valid);
}

TEST(Cholesky, SolveMatchesDirectSolve) {
  std::mt19937_64 rng(4);
  const Matrix a = random_spd(5, rng);
  const Vector b{1, -2, 3, 0.5, 2};
  const Cholesky chol = Cholesky::compute(a);
  ASSERT_TRUE(chol.valid);
  const Vector x = chol.solve(b);
  const Vector ax = a * x;
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(Cholesky, LogDetMatchesLu) {
  std::mt19937_64 rng(5);
  const Matrix a = random_spd(7, rng);
  const Cholesky chol = Cholesky::compute(a);
  const Lu lu = Lu::compute(a);
  ASSERT_TRUE(chol.valid);
  ASSERT_TRUE(lu.valid);
  EXPECT_NEAR(chol.log_det(), std::log(lu.determinant()), 1e-8);
}

TEST(Cholesky, MahalanobisMatchesExplicitForm) {
  std::mt19937_64 rng(6);
  const Matrix a = random_spd(4, rng);
  const Cholesky chol = Cholesky::compute(a);
  const Vector x{0.3, -1.0, 2.0, 0.7};
  const Vector ainv_x = solve(a, x);
  EXPECT_NEAR(chol.mahalanobis_squared(x), dot(x, ainv_x), 1e-9);
}

TEST(Cholesky, InvalidUseThrows) {
  Cholesky c;  // never computed
  EXPECT_THROW(c.solve({1.0}), std::runtime_error);
  EXPECT_THROW(c.log_det(), std::runtime_error);
}

TEST(Lu, DeterminantOfKnownMatrix) {
  const Matrix a{{4, 3}, {6, 3}};
  const Lu lu = Lu::compute(a);
  ASSERT_TRUE(lu.valid);
  EXPECT_NEAR(lu.determinant(), -6.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  const Matrix a{{1, 2}, {2, 4}};
  EXPECT_FALSE(Lu::compute(a).valid);
  EXPECT_THROW(inverse(a), std::runtime_error);
}

TEST(Lu, SolveRandomSystems) {
  std::mt19937_64 rng(8);
  std::normal_distribution<double> d(0, 1);
  for (int rep = 0; rep < 5; ++rep) {
    Matrix a(6, 6);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) a(i, j) = d(rng);
    }
    Vector x_true(6);
    for (double& v : x_true) v = d(rng);
    const Vector b = a * x_true;
    const Vector x = solve(a, b);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  std::mt19937_64 rng(9);
  const Matrix a = random_spd(5, rng);
  const Matrix inv = inverse(a);
  EXPECT_TRUE(Matrix::approx_equal(a * inv, Matrix::identity(5), 1e-8));
}

TEST(Regularized, AddsToDiagonalOnly) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix r = regularized(a, 0.5);
  EXPECT_DOUBLE_EQ(r(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(r(1, 1), 4.5);
  EXPECT_DOUBLE_EQ(r(0, 1), 2.0);
}

TEST(Eigen, DiagonalMatrixEigenvaluesSorted) {
  const Matrix a = Matrix::diagonal({1, 5, 3});
  const EigenDecomposition e = eigen_symmetric(a);
  ASSERT_TRUE(e.converged);
  EXPECT_NEAR(e.values[0], 5, 1e-12);
  EXPECT_NEAR(e.values[1], 3, 1e-12);
  EXPECT_NEAR(e.values[2], 1, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  const Matrix a{{2, 1}, {1, 2}};  // eigenvalues 3 and 1
  const EigenDecomposition e = eigen_symmetric(a);
  ASSERT_TRUE(e.converged);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
}

TEST(Eigen, ReconstructionAndOrthogonality) {
  std::mt19937_64 rng(10);
  const Matrix a = random_spd(8, rng);
  const EigenDecomposition e = eigen_symmetric(a);
  ASSERT_TRUE(e.converged);
  // V diag(w) V^T == A
  const Matrix recon =
      e.vectors * Matrix::diagonal(e.values) * e.vectors.transposed();
  EXPECT_TRUE(Matrix::approx_equal(recon, a, 1e-8));
  // V^T V == I
  EXPECT_TRUE(
      Matrix::approx_equal(e.vectors.transposed() * e.vectors, Matrix::identity(8), 1e-9));
}

TEST(Eigen, TraceEqualsEigenvalueSum) {
  std::mt19937_64 rng(11);
  const Matrix a = random_spd(6, rng);
  const EigenDecomposition e = eigen_symmetric(a);
  double sum = 0.0;
  for (double v : e.values) sum += v;
  EXPECT_NEAR(sum, a.trace(), 1e-8);
}

TEST(Eigen, NonSquareThrows) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

TEST(Eigen, EmptyMatrixConverges) {
  const EigenDecomposition e = eigen_symmetric(Matrix{});
  EXPECT_TRUE(e.converged);
  EXPECT_TRUE(e.values.empty());
}

class EigenSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSizeSweep, EigenpairsSatisfyDefinition) {
  std::mt19937_64 rng(100 + GetParam());
  const Matrix a = random_spd(GetParam(), rng);
  const EigenDecomposition e = eigen_symmetric(a);
  ASSERT_TRUE(e.converged);
  for (std::size_t k = 0; k < GetParam(); ++k) {
    const Vector v = e.vectors.col_vector(k);
    const Vector av = a * v;
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(av[i], e.values[k] * v[i], 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 10, 25, 60, 128,
                                                        512));

TEST(Eigen, KnownSpectrumAtPipelineScale) {
  // The shape of the 112-class group covariance: 512 selected points, a
  // spectrum falling from 1e2, and a numerical-rank cliff after 53
  // components with the tail running down to 1e-13.
  constexpr std::size_t kN = 512;
  constexpr std::size_t kRank = 53;
  Vector lambda(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    lambda[i] = i < kRank
                    ? 1e2 * std::pow(1e-4, static_cast<double>(i) / (kRank - 1))
                    : 1e-10 * std::pow(1e-3, static_cast<double>(i - kRank) /
                                                 (kN - 1 - kRank));
  }
  std::mt19937_64 rng(512);
  const Matrix a = known_spectrum(lambda, 6, rng);
  const EigenDecomposition e = eigen_symmetric(a);
  ASSERT_TRUE(e.converged);
  const double lambda0 = lambda.front();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(e.values[i], lambda[i], 1e-10 * lambda0) << "eigenvalue " << i;
    if (i + 1 < kN) {
      EXPECT_GE(e.values[i], e.values[i + 1]) << "order at " << i;
    }
  }
  EXPECT_LE(residual_inf(a, e), 1e-9 * lambda0);
  EXPECT_LE(orthogonality_error(e.vectors), 1e-10);
}

TEST(Eigen, IdentityHasOrthonormalEigenbasis) {
  const Matrix a = Matrix::identity(6);
  const EigenDecomposition e = eigen_symmetric(a);
  ASSERT_TRUE(e.converged);
  for (double v : e.values) EXPECT_NEAR(v, 1.0, 1e-14);
  EXPECT_LE(residual_inf(a, e), 1e-13);
  EXPECT_LE(orthogonality_error(e.vectors), 1e-13);
}

TEST(Eigen, BlockDiagonalRepeatedEigenvalues) {
  // Two copies of [[2, 1], [1, 2]] (eigenvalues 3 and 1) around 2 * I_3:
  // spectrum {3, 3, 2, 2, 2, 1, 1}, every value repeated.
  Matrix a(7, 7);
  for (const std::size_t b : {std::size_t{0}, std::size_t{5}}) {
    a(b, b) = a(b + 1, b + 1) = 2.0;
    a(b, b + 1) = a(b + 1, b) = 1.0;
  }
  for (std::size_t i = 2; i < 5; ++i) a(i, i) = 2.0;
  const EigenDecomposition e = eigen_symmetric(a);
  ASSERT_TRUE(e.converged);
  const Vector expected{3, 3, 2, 2, 2, 1, 1};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(e.values[i], expected[i], 1e-12) << "eigenvalue " << i;
  }
  EXPECT_LE(residual_inf(a, e), 1e-12);
  EXPECT_LE(orthogonality_error(e.vectors), 1e-12);
}

TEST(Eigen, NonFiniteInputIsNotConverged) {
  Matrix a = Matrix::identity(3);
  a(1, 2) = a(2, 1) = std::nan("");
  EXPECT_FALSE(eigen_symmetric(a).converged);
}

}  // namespace
}  // namespace sidis::linalg
