// Kullback-Leibler divergence, Eq. (1) of the paper, specialized to the
// Gaussian case the paper actually computes (citing [20]): every CWT grid
// point is modelled per class as a univariate normal over the profiling
// traces, and the closed-form Gaussian KL is evaluated point-by-point.
#pragma once

#include "linalg/matrix.hpp"
#include "stats/gaussian.hpp"

namespace sidis::stats {

/// Closed-form KL( N(p) || N(q) ) for univariate Gaussians:
///   log(sq/sp) + (sp^2 + (mp-mq)^2) / (2 sq^2) - 1/2.
double kl_gaussian(const Gaussian1D& p, const Gaussian1D& q);

/// Per-grid-point Gaussian moments of one class's scalograms: (means,
/// variances) matrices with the common (scales x time) shape.
struct MomentMaps {
  linalg::Matrix mean;
  linalg::Matrix var;
};

/// Point-wise KL map between two classes' moment maps: entry (j,k) is the
/// Gaussian KL divergence between the two coefficient distributions at grid
/// point (j,k), directional like the paper's D_KL.
linalg::Matrix kl_map_from_moments(const MomentMaps& a, const MomentMaps& b);

}  // namespace sidis::stats
