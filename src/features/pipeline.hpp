// The fitted feature pipeline of Fig. 1: CWT -> KL feature selection ->
// normalization -> PCA.  Fitting consumes labeled trace sets (one per
// class); transforming maps any raw 315-sample trace into the reduced
// feature space where the classifiers live.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "features/selection.hpp"
#include "ml/dataset.hpp"
#include "stats/pca.hpp"
#include "stats/standardize.hpp"

namespace sidis::features {

struct PipelineConfig {
  dsp::CwtConfig cwt;
  /// Definition 3.1 threshold; the paper uses 0.005 initially and tightens
  /// to 0.0005 for covariate-shift adaptation (Sec. 5.5).
  double kl_threshold = 0.005;
  /// DNVP^(N): top-N distinct & not-varying points per class pair.
  std::size_t points_per_pair = 5;
  /// Compare the within-class KL against kl_threshold *plus* the corpus's
  /// estimator noise floor (features::within_class_noise_floor).  The
  /// paper's absolute thresholds implicitly assume its 300-traces-per-program
  /// corpora; the adaptive form keeps the loose/tight contrast meaningful at
  /// any profiling scale.
  bool adaptive_threshold = true;
  /// Per-trace normalization -- the paper's "With Norm." CSA ingredient
  /// (Table 3).  The window is mean-centred and divided by the capture's
  /// gain estimate (TraceMeta::gain_estimate, measured on the content-free
  /// trigger prefix), cancelling the session/device/program gain without
  /// injecting content-dependent estimator noise.  Applied identically
  /// during profiling and classification.
  bool per_trace_normalization = true;
  /// Column standardization before PCA (the Fig.-1 "normalization" step).
  bool column_standardization = true;
  /// Principal components kept (experiments sweep the effective count at
  /// classification time via Dataset::truncated).
  std::size_t pca_components = 64;
  /// When a pair yields no eligible peak under the NVP masks (everything
  /// varies), fall back to the top between-class peaks without the masks so
  /// the pipeline stays usable; the CSA benches turn this off to show the
  /// failure mode honestly.
  bool allow_fallback_points = true;
  /// Threads for the parallel stages (moment pass, per-class NVP masks,
  /// class-pair DNVP selection, pass-2 feature extraction, batched
  /// transform): 0 = all hardware threads, 1 = sequential.  Every stage
  /// writes per-index slots and reduces in trace order, so the fitted model
  /// and transformed datasets are bit-identical for any setting.
  std::size_t workers = 0;
};

/// Re-keys a pipeline recipe for a decimated acquisition grid
/// (sim::AcquisitionConfig::samples_per_cycle): the CWT scale band is
/// expressed in samples, so holding it fixed across rates would move it in
/// *frequency*; this rescales min/max_scale by rate / nominal-rate (clamping
/// the finest scale at one sample) so the selected feature points track the
/// same absolute frequency band at every configuration.  Identity at the
/// nominal 156.25 samples/cycle.  Each configuration gets its own fitted
/// pipeline -- grids of different lengths are never mixed in one fit.
PipelineConfig configured_for(PipelineConfig base, double samples_per_cycle);

/// Cap on the unified feature-point set.  With K classes the per-pair DNVP
/// union grows like 5*K*(K-1)/2; at the 112-class level that would push PCA
/// into thousands of dimensions.  Points are KL-ranked, so truncation keeps
/// the strongest of Definition 3.1's candidates; the cap also bounds
/// classification cost (one kernel correlation per point).
inline constexpr std::size_t kMaxUnifiedPoints = 512;

/// Windows one struct-of-arrays pass of a feature pipeline carries: one
/// full 16-lane tile.  Every batched transform, training included, cuts its
/// corpus into runs of at most this many consecutive equal-length windows.
inline constexpr std::size_t kSoaChunk = 16;

/// Labeled input: one TraceSet per class, parallel to `labels`.
struct LabeledTraces {
  std::vector<int> labels;
  std::vector<const sim::TraceSet*> sets;
};

/// A fitted pipeline is immutable: all transform overloads are const,
/// allocate their scratch locally, and may run concurrently from any number
/// of threads on one shared instance (see the thread-safety contract in
/// core/hierarchical.hpp).
class FeaturePipeline {
 public:
  FeaturePipeline() = default;

  /// Per-class intermediate products (CWT moment maps + NVP mask), reusable
  /// across many fits -- the majority-voting method (Sec. 5.4) fits one
  /// pipeline per class *pair*, so sharing this pass turns an O(K^2) cost
  /// into O(K).
  struct ClassData {
    int label = 0;
    const sim::TraceSet* traces = nullptr;
    sim::TraceSet preprocessed;  ///< per-trace-normalized copy (or verbatim)
    ClassMoments moments;
    std::vector<std::uint8_t> mask;
  };

  /// Runs the moment/mask pass once per class.
  static std::vector<ClassData> precompute(const LabeledTraces& input,
                                           const PipelineConfig& config);

  /// Fits selection + scalers + PCA on profiling traces.
  /// Throws std::invalid_argument on empty input or mismatched shapes.
  static FeaturePipeline fit(const LabeledTraces& input, PipelineConfig config = {});

  /// Fits from precomputed class data (subset selection by pointer).
  static FeaturePipeline fit(const std::vector<const ClassData*>& classes,
                             PipelineConfig config = {});

  /// Rebuilds a fitted pipeline from stored parts (template persistence).
  static FeaturePipeline from_parts(PipelineConfig config,
                                    std::vector<stats::GridPoint> points,
                                    stats::ColumnScaler scaler, stats::Pca pca,
                                    std::size_t grid_size);

  /// Projects one trace into the fitted feature space, keeping
  /// `components` PCs (default: all fitted ones).  Uses the trace's
  /// gain_estimate for per-trace normalization when enabled.  A one-lane
  /// transform_soa_batch: the window is its own marshalled block.
  linalg::Vector transform(const sim::Trace& trace,
                           std::size_t components = SIZE_MAX) const;

  /// The per-trace preprocessing the batch entry points expect: mean
  /// removal + gain division when `per_trace_normalization`, the raw
  /// samples verbatim otherwise.
  static std::vector<double> preprocess_window(const sim::Trace& trace,
                                               bool per_trace_normalization);

  /// The feature map on a pre-marshalled block (layout of dsp::Cwt::marshal:
  /// soa[t * lanes + l] = window l, sample t; `soa` must hold n * lanes
  /// doubles, each window preprocessed for this pipeline's
  /// per_trace_normalization setting): this pipeline's points gathered
  /// (Cwt::gather_soa), then project_soa.  Returns (components x lanes) with
  /// *columns* as windows.  Every window's reductions keep the scalar
  /// accumulation order of Cwt::coefficient, ColumnScaler::transform and
  /// Pca::transform -- only the batch dimension is vectorized -- so a column
  /// does not depend on the batch it rode in.  `ws` is unused.
  linalg::Matrix transform_soa_batch(std::span<const double> soa, std::size_t n,
                                     std::size_t lanes, std::size_t components,
                                     dsp::CwtBatchWorkspace& ws) const;

  /// Second step of transform_soa_batch on a gathered block of `width`
  /// lane-contiguous columns: point p of output column i is
  /// gathered[rows[p] * width + lanes[i]], where `lanes` (ascending) picks
  /// the columns and empty means all `width`.  Column standardization
  /// (which does the copy), PCA centring, then the register-tiled
  /// projection.  (components x lanes).  Several pipelines can read one
  /// shared gather through their row maps (see features/gather_plan.hpp).
  linalg::Matrix project_soa(const double* gathered, std::size_t width,
                             std::span<const std::size_t> rows,
                             std::span<const std::size_t> lanes,
                             std::size_t components) const;

  /// Projects labeled trace sets into a dataset, rows in trace order.  Runs
  /// of up to kSoaChunk consecutive equal-length windows share one
  /// transform_soa_batch, the runs spread over config().workers threads.
  ml::Dataset transform(const LabeledTraces& input,
                        std::size_t components = SIZE_MAX) const;

  /// CSA re-normalization from a small recalibration corpus captured on a
  /// *different* device or session (Sec. 5.6 recalibration budgets): returns
  /// a copy of this pipeline whose column scaler is re-centred on the
  /// recalibration traces' selected-feature means, so the shifted corpus
  /// lands where the training corpus did and the fitted PCA + classifier
  /// stay valid.  `rescale` also replaces the per-column standard deviations
  /// (needs a generous budget; noisy below ~10 traces/class).  Labels are
  /// not used -- a roughly class-balanced corpus suffices.  Requires a
  /// pipeline fitted with column_standardization; throws std::logic_error
  /// otherwise and std::invalid_argument on an empty corpus.
  FeaturePipeline renormalized(const sim::TraceSet& recal, bool rescale = false) const;

  // -- introspection for the experiment benches -----------------------------
  const std::vector<stats::GridPoint>& unified_points() const { return points_; }
  /// The filter bank the points are gathered with.
  const dsp::Cwt& cwt() const { return cwt_; }
  const stats::Pca& pca() const { return pca_; }
  const stats::ColumnScaler& scaler() const { return scaler_; }
  std::size_t max_components() const { return pca_.num_components(); }
  const PipelineConfig& config() const { return config_; }
  /// Grid size before selection (scales x samples), for the paper's
  /// "15750 -> 205, 98.7% reduction" statistic.
  std::size_t grid_size() const { return grid_size_; }

 private:
  /// Copies points_ into the CwtPoint list gather_soa takes, plus the
  /// identity row map project_soa reads this pipeline's own gather through,
  /// so the hot path reads them instead of rebuilding them per call.  Both
  /// factory functions call this after setting points_.
  void index_points();

  /// The raw (pre-scaler) coefficients of this pipeline's points on
  /// `windows`, one row per window, each per-trace-normalized first when
  /// `normalize`: training pass 2 and renormalized() read these.
  linalg::Matrix gather_rows(std::span<const sim::Trace* const> windows,
                             bool normalize) const;

  PipelineConfig config_;
  dsp::Cwt cwt_{dsp::CwtConfig{}};
  std::vector<stats::GridPoint> points_;
  std::vector<dsp::CwtPoint> cwt_points_;  ///< points_ as (j, k) (cache)
  std::vector<std::size_t> own_rows_;      ///< 0 .. points_.size() - 1
  stats::ColumnScaler scaler_;
  stats::Pca pca_;
  std::size_t grid_size_ = 0;
};

}  // namespace sidis::features
