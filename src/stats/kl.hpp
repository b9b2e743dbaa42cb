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

/// Symmetrized divergence KL(p||q) + KL(q||p); used where the paper needs a
/// direction-free distance between two classes.
double symmetric_kl_gaussian(const Gaussian1D& p, const Gaussian1D& q);

/// Closed-form KL between multivariate Gaussians:
///   1/2 [ tr(Sq^-1 Sp) + (mq-mp)^T Sq^-1 (mq-mp) - k + ln det Sq / det Sp ].
double kl_gaussian(const MultivariateGaussian& p, const MultivariateGaussian& q);

/// Point-wise KL map between two stacks of scalograms.
///
/// `a` and `b` hold one scalogram per trace, all with identical shape
/// (scales x time).  The result has that same shape; entry (j,k) is the
/// Gaussian KL divergence between the two classes' coefficient distributions
/// at grid point (j,k), directional like the paper's D_KL.
linalg::Matrix kl_map(const std::vector<linalg::Matrix>& a,
                      const std::vector<linalg::Matrix>& b, double min_var = 1e-12);

/// Per-grid-point Gaussian moments of a stack of scalograms: returns a pair
/// of matrices (means, variances) with the common scalogram shape.
struct MomentMaps {
  linalg::Matrix mean;
  linalg::Matrix var;
};
MomentMaps moment_maps(const std::vector<linalg::Matrix>& stack,
                       double min_var = 1e-12);

/// KL map computed from precomputed moment maps (avoids re-scanning trace
/// stacks inside the O(pairs) loops of the feature selector).
linalg::Matrix kl_map_from_moments(const MomentMaps& a, const MomentMaps& b);

}  // namespace sidis::stats
