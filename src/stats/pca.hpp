// Principal component analysis (Sec. 3.2): unsupervised linear
// dimensionality reduction of the KL-selected feature points.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace sidis::stats {

/// Fitted PCA model.  `transform` maps a p-dimensional feature vector onto
/// its first k principal components.
class Pca {
 public:
  Pca() = default;

  /// Fits on sample rows (n x p).  Keeps min(`max_components`, p) components.
  /// Requires n >= 2.
  static Pca fit(const linalg::Matrix& samples, std::size_t max_components = SIZE_MAX);

  /// Projects a single vector onto the leading `k` components
  /// (k <= num_components(); defaults to all kept components).
  linalg::Vector transform(const linalg::Vector& x, std::size_t k = SIZE_MAX) const;

  /// Projects every row of `samples`.
  linalg::Matrix transform(const linalg::Matrix& samples, std::size_t k = SIZE_MAX) const;

  std::size_t num_components() const { return eigenvalues_.size(); }
  std::size_t input_dim() const { return mean_.size(); }
  const linalg::Vector& mean() const { return mean_; }
  const linalg::Vector& eigenvalues() const { return eigenvalues_; }
  /// Columns are principal axes, descending eigenvalue order.
  const linalg::Matrix& components() const { return components_; }

  /// Trace of the training covariance before truncation.
  double total_variance() const { return total_variance_; }

  /// Rebuilds a fitted model from stored parts (template deserialization).
  static Pca from_parts(linalg::Vector mean, linalg::Vector eigenvalues,
                        linalg::Matrix components, double total_variance);

 private:
  linalg::Vector mean_;
  linalg::Vector eigenvalues_;   ///< descending, clamped at >= 0
  linalg::Matrix components_;    ///< p x k, axes as columns
  double total_variance_ = 0.0;  ///< trace of the covariance before truncation
};

}  // namespace sidis::stats
