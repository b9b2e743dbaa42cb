// Matrix factorizations used by the classifiers.
//
// QDA needs, per class, the log-determinant of the covariance and fast solves
// against it; LDA needs the same for the pooled covariance.  Cholesky covers
// the symmetric positive-definite case and LU (partial pivoting) the general
// one.  Both report failure through a `valid` flag rather than exceptions so
// callers can fall back to regularization when a covariance is singular —
// which genuinely happens in this pipeline when the number of training traces
// is close to the feature dimension.
#pragma once

#include "linalg/matrix.hpp"

namespace sidis::linalg {

/// Cholesky factorization A = L * L^T of a symmetric positive-definite A.
struct Cholesky {
  Matrix l;          ///< lower-triangular factor (valid only if `valid`)
  bool valid = false;

  /// Attempts the factorization; `valid` is false when A is not (numerically)
  /// positive definite.
  static Cholesky compute(const Matrix& a);

  /// log(det A) = 2 * sum(log L(i,i)).  Requires `valid`.
  double log_det() const;

  /// Squared Mahalanobis distance x^T A^{-1} x for A = L L^T.
  double mahalanobis_squared(const Vector& x) const;

  /// Lane-blocked Mahalanobis over a struct-of-arrays batch: `x_cols` is
  /// (n x lanes) with columns as vectors, out[l] = mahalanobis_squared of
  /// column l.  One forward substitution sweeps all lanes -- each row of L
  /// loads once per batch instead of once per vector and the inner loops
  /// vectorize across lanes -- while every lane keeps the scalar
  /// accumulation order, so the results are bit-identical.  `y` is grow-once
  /// caller scratch (resized to n x lanes).
  void mahalanobis_squared_batch(const Matrix& x_cols, std::span<double> out,
                                 Matrix& y) const;
};

/// LU factorization with partial pivoting: P A = L U.
struct Lu {
  Matrix lu;                    ///< packed L (unit diag, below) and U (above+diag)
  std::vector<std::size_t> perm;
  int sign = 1;                 ///< permutation parity, for determinant
  bool valid = false;           ///< false when A is numerically singular

  static Lu compute(const Matrix& a);

  Vector solve(const Vector& b) const;
  Matrix solve(const Matrix& b) const;
  double determinant() const;
  Matrix inverse() const;
};

/// Convenience: A^{-1} via LU; throws std::runtime_error if singular.
Matrix inverse(const Matrix& a);

/// Convenience: solve A x = b via LU; throws std::runtime_error if singular.
Vector solve(const Matrix& a, const Vector& b);

/// Adds `lambda` to the diagonal (Tikhonov / shrinkage regularization).
Matrix regularized(const Matrix& a, double lambda);

}  // namespace sidis::linalg
