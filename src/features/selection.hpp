// KL-divergence feature selection in the time-frequency domain (Sec. 3.1 and
// Definition 3.1 of the paper).
//
// Every class's CWT coefficients are modelled per grid point as univariate
// Gaussians.  Three ingredients combine into the feature set:
//   * the between-class KL map, whose local maxima are "distinct points";
//   * the within-class KL maps across profiling program files, which flag
//     points that vary with measurement context ("not-varying" requires the
//     max over program pairs to stay below KL_th);
//   * the intersection, ranked by between-class KL, of which the top-N
//     ("DNVP^(5)" in the paper) become the pair's feature points.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/wavelet.hpp"
#include "sim/trace.hpp"
#include "stats/kl.hpp"
#include "stats/peaks.hpp"

namespace sidis::features {

/// Streaming per-grid-point Gaussian moments of one class's scalograms:
/// pooled over all traces and split per profiling program.
struct ClassMoments {
  stats::MomentMaps pooled;
  std::vector<int> program_ids;               ///< order of appearance
  std::vector<stats::MomentMaps> per_program; ///< aligned with program_ids
  std::vector<std::size_t> per_program_counts;///< traces per program
  std::size_t trace_count = 0;
};

/// One pass of CWTs over a trace set, accumulating moments only (memory stays
/// O(programs x grid + workers x window) regardless of trace count).
/// `workers` fans the scalogram computation out through runtime::parallel_for
/// (0 = all hardware threads); the moment reduction always runs in trace
/// order, so the result is bit-identical for every worker count.
ClassMoments compute_class_moments(const dsp::Cwt& cwt, const sim::TraceSet& traces,
                                   double min_var = 1e-12, std::size_t workers = 1);

/// Within-class KL map, D_KL^W of Definition 3.1(2).  Requires >= 2 programs.
///
/// Definition 3.1 is stated for the true divergences ("every program pair
/// below KL_th", i.e. the max over pairs).  The empirical Gaussian-KL
/// estimator, however, has a positive finite-sample bias of about
/// 3/(2*n_q) + 1/(2*n_p) even when the true divergence is zero -- at paper
/// scale (hundreds of traces per program) that floor sits below KL_th, but a
/// faithful implementation must remove it or the thresholds lose meaning at
/// any other scale.  This routine therefore (a) subtracts the analytic bias
/// per program pair and (b) averages the debiased values over all ordered
/// pairs (clamping the final mean at 0), which suppresses the remaining
/// estimator noise by ~1/#pairs.
linalg::Matrix within_class_kl_map(const ClassMoments& moments);

/// Between-class KL map D_KL^B from pooled moments.
linalg::Matrix between_class_kl_map(const ClassMoments& a, const ClassMoments& b);

/// Boolean mask (row-major, grid-shaped) of points whose within-class KL
/// stays below `kl_th` -- the NVP_c set.
std::vector<std::uint8_t> nvp_mask(const linalg::Matrix& within_map, double kl_th);

/// Residual standard error of the debiased, pair-averaged within-class KL
/// estimate for this corpus: roughly mean-pair-bias / sqrt(P - 1) where P is
/// the number of profiling programs.  Threshold comparisons only make sense
/// relative to this floor (see PipelineConfig::adaptive_threshold).
double within_class_noise_floor(const ClassMoments& moments);

/// Distinct & not-varying feature points of a class pair: local maxima of
/// the between-class map, restricted to NVP_a and NVP_b, top `count` by KL
/// value (DNVP^(count)).
std::vector<stats::GridPoint> dnvp(const linalg::Matrix& between_map,
                                   const std::vector<std::uint8_t>& mask_a,
                                   const std::vector<std::uint8_t>& mask_b,
                                   std::size_t count);

/// Union of per-pair point sets, deduplicated, in deterministic
/// (value-descending, then index) order.
std::vector<stats::GridPoint> unify_points(
    const std::vector<std::vector<stats::GridPoint>>& per_pair);

}  // namespace sidis::features
