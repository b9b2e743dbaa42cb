// Labeled datasets for the classifier layer.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace sidis::ml {

/// Rows of `x` are samples; `y[i]` is the integer class label of row i.
/// Labels are arbitrary ints (classifiers discover the label set on fit).
struct Dataset {
  linalg::Matrix x;
  std::vector<int> y;

  std::size_t size() const { return x.rows(); }
  std::size_t dim() const { return x.cols(); }

  /// Throws std::invalid_argument when rows and labels disagree.
  void validate() const;

  /// Rows whose label equals `label`.
  linalg::Matrix rows_with_label(int label) const;

  /// Sorted unique labels.
  std::vector<int> labels() const;

  /// Keeps only the first k columns of every sample (PCA sweeps use this to
  /// re-evaluate with fewer components without re-projecting).
  Dataset truncated(std::size_t k) const;
};

}  // namespace sidis::ml
