// Per-column standardization fitted on training data ("Fifth, selected
// feature values are normalized" in the Fig. 1 flow).  The paper's other
// flavour, per-trace normalization for covariate-shift adaptation (Table 3
// "With Norm."), runs on the raw window inside features::FeaturePipeline.
#pragma once

#include "linalg/matrix.hpp"

namespace sidis::stats {

/// Per-column z-score scaler: fitted on a training matrix, applied to any
/// vector/matrix with the same column count.
class ColumnScaler {
 public:
  ColumnScaler() = default;

  /// Learns column means and standard deviations (clamped to >= eps).
  static ColumnScaler fit(const linalg::Matrix& samples, double eps = 1e-12);

  linalg::Vector transform(const linalg::Vector& x) const;
  linalg::Matrix transform(const linalg::Matrix& samples) const;

  std::size_t dim() const { return mean_.size(); }
  const linalg::Vector& mean() const { return mean_; }
  const linalg::Vector& stddev() const { return std_; }

  /// Rebuilds a fitted scaler from stored statistics.
  static ColumnScaler from_parts(linalg::Vector mean, linalg::Vector stddev);

 private:
  linalg::Vector mean_;
  linalg::Vector std_;
};

}  // namespace sidis::stats
