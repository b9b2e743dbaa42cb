// 2-D peak finding on KL maps.
//
// Definition 3.1(3) of the paper selects grid points where the between-class
// KL divergence has a local maximum; this header implements that detection on
// the (scale x time) matrices produced by stats::kl_map_from_moments.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace sidis::stats {

/// A grid point (j = scale/frequency index, k = time index) with its value.
struct GridPoint {
  std::size_t j = 0;
  std::size_t k = 0;
  double value = 0.0;

  friend bool operator==(const GridPoint&, const GridPoint&) = default;
};

/// Finds local maxima of `map` over an 8-connected neighbourhood.
/// A point qualifies when it is >= all neighbours, strictly greater than at
/// least one, and its value is >= `min_value`.  Border points compare only
/// against their in-grid neighbours.
std::vector<GridPoint> local_maxima_2d(const linalg::Matrix& map,
                                       double min_value = 0.0);

/// The `count` highest-valued points from `points` (descending by value;
/// ties broken by (j,k) for determinism).  Returns fewer when the input is
/// smaller.
std::vector<GridPoint> top_k(std::vector<GridPoint> points, std::size_t count);

/// The `count` lowest-valued points (the paper's Fig. 3 "3 lowest peak
/// points" ablation).
std::vector<GridPoint> bottom_k(std::vector<GridPoint> points, std::size_t count);

}  // namespace sidis::stats
