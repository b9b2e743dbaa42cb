// Symmetric eigendecomposition: Householder tridiagonalization followed by
// implicit-shift QL (EISPACK tred2/tql2).
//
// PCA (Sec. 3.2 of the paper) needs the full spectrum of a covariance matrix
// whose dimension is the number of selected KL feature points -- about 200
// after the 98.7% reduction the paper reports, and up to the pipeline's
// features::kMaxUnifiedPoints (512) at the 112-class group level.  Tridiagonal QL
// costs O(n^3) with a small constant and needs about two iterations per
// eigenvalue even on the rank-deficient covariances PCA sees there.  The
// eigenvector matrix is kept transposed while it is built, so every
// reflector update and every QL rotation streams contiguous rows.
#pragma once

#include "linalg/matrix.hpp"

namespace sidis::linalg {

/// Result of a symmetric eigendecomposition A = V diag(values) V^T.
struct EigenDecomposition {
  Vector values;       ///< eigenvalues, sorted descending
  Matrix vectors;      ///< eigenvectors as columns, matching `values` order
  int iterations = 0;  ///< implicit QL iterations used (diagnostic)
  bool converged = false;
};

/// Computes all eigenpairs of symmetric `a`.
///
/// `a` is symmetrized internally (averaging with the transpose) to shrug off
/// the last-bit asymmetry that covariance accumulation produces.  Equal
/// eigenvalues get an orthonormal basis of their eigenspace.  `converged` is
/// false when an eigenvalue exhausts its QL iteration budget or the input
/// holds non-finite entries.  Throws std::invalid_argument on non-square
/// input.
EigenDecomposition eigen_symmetric(const Matrix& a);

}  // namespace sidis::linalg
