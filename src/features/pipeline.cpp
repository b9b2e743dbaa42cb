#include "features/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dsp/signal.hpp"
#include "linalg/lanes.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/acq_config.hpp"

namespace sidis::features {

PipelineConfig configured_for(PipelineConfig base, double samples_per_cycle) {
  const double ratio = samples_per_cycle / sim::kNominalSamplesPerCycle;
  if (ratio == 1.0) return base;
  if (!(ratio > 0.0)) {
    throw std::invalid_argument("configured_for: samples_per_cycle must be > 0");
  }
  base.cwt.min_scale = std::max(1.0, base.cwt.min_scale * ratio);
  base.cwt.max_scale = std::max(base.cwt.min_scale + 1.0, base.cwt.max_scale * ratio);
  return base;
}

namespace {

/// Per-trace normalization: remove the residual window mean and divide by
/// the capture's gain estimate (from the content-free trigger prefix).
std::vector<double> normalize_window(const std::vector<double>& samples,
                                     double gain_estimate) {
  const double m = dsp::mean(samples);
  const double inv = 1.0 / std::max(gain_estimate, 1e-9);
  std::vector<double> out(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) out[i] = (samples[i] - m) * inv;
  return out;
}

/// Applies the per-trace normalization to a whole set when enabled.
sim::TraceSet preprocess(const sim::TraceSet& traces, bool normalize) {
  if (!normalize) return traces;
  sim::TraceSet out = traces;
  for (sim::Trace& t : out) {
    t.samples = normalize_window(t.samples, t.meta.gain_estimate);
  }
  return out;
}

/// Cuts `windows` into runs of at most kSoaChunk consecutive windows of one
/// length and runs body(first, soa, n, lanes) on each, where soa is the run
/// marshalled (each window per-trace-normalized first when `normalize`), n
/// its length and first the index of its first window.  The runs fan out
/// over `workers` threads; each window's result depends only on the window,
/// so nothing depends on the worker count.
template <class Body>
void for_each_block(std::span<const sim::Trace* const> windows, bool normalize,
                    std::size_t workers, Body&& body) {
  std::vector<std::size_t> starts;
  for (std::size_t b = 0, e = 0; b < windows.size(); b = e) {
    starts.push_back(b);
    const std::size_t n = windows[b]->samples.size();
    for (e = b + 1; e < windows.size() && e - b < kSoaChunk &&
                    windows[e]->samples.size() == n;
         ++e) {
    }
  }
  starts.push_back(windows.size());
  runtime::parallel_for(starts.size() - 1, workers, [&](std::size_t c) {
    const std::size_t first = starts[c], lanes = starts[c + 1] - first;
    std::vector<std::vector<double>> normalized(normalize ? lanes : 0);
    std::vector<const std::vector<double>*> prepared(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      const sim::Trace& t = *windows[first + l];
      if (!normalize) {
        prepared[l] = &t.samples;
        continue;
      }
      normalized[l] = normalize_window(t.samples, t.meta.gain_estimate);
      prepared[l] = &normalized[l];
    }
    std::vector<double> soa;
    const std::size_t n = dsp::Cwt::marshal(prepared, soa);
    body(first, std::span<const double>(soa), n, lanes);
  });
}

/// R components' projections on the tile of lanes [l0, l0 + T::kLanes) of
/// the centred features f (np rows of m lanes): component c0 + r sums
/// f * axes(., c0 + r) over points in ascending order, the R sums sharing
/// each load of f.
template <class T, std::size_t R>
void project_tile(const linalg::Matrix& axes, std::size_t c0, const double* f,
                  std::size_t np, std::size_t m, std::size_t l0, linalg::Matrix& z) {
  T acc[R];
  for (std::size_t p = 0; p < np; ++p) {
    T x;
    x.load(f + p * m + l0);
    const double* a = axes.row(p).data() + c0;
    linalg::unrolled<R>([&](std::size_t r) { acc[r].mul_add(a[r], x); });
  }
  linalg::unrolled<R>([&](std::size_t r) { acc[r].store(z.row(c0 + r).data() + l0); });
}

}  // namespace

std::vector<FeaturePipeline::ClassData> FeaturePipeline::precompute(
    const LabeledTraces& input, const PipelineConfig& config) {
  if (input.labels.size() != input.sets.size() || input.labels.empty()) {
    throw std::invalid_argument("FeaturePipeline::precompute: bad labeled input");
  }
  const dsp::Cwt cwt(config.cwt);
  std::vector<ClassData> out;
  out.reserve(input.sets.size());
  // Moments class by class: each pass is already trace-parallel, and
  // running classes side by side would keep one class's scalograms alive
  // per lane.
  for (std::size_t c = 0; c < input.sets.size(); ++c) {
    const sim::TraceSet* s = input.sets[c];
    if (s == nullptr || s->empty()) {
      throw std::invalid_argument("FeaturePipeline::precompute: empty trace set");
    }
    ClassData d;
    d.label = input.labels[c];
    d.traces = s;
    d.preprocessed = preprocess(*s, config.per_trace_normalization);
    d.moments = compute_class_moments(cwt, d.preprocessed, 1e-12, config.workers);
    out.push_back(std::move(d));
  }
  // NVP masks, one class per lane; each writes only its own slot.
  runtime::parallel_for(out.size(), config.workers, [&](std::size_t c) {
    ClassData& d = out[c];
    if (d.moments.per_program.size() >= 2) {
      double threshold = config.kl_threshold;
      if (config.adaptive_threshold) {
        threshold += within_class_noise_floor(d.moments);
      }
      d.mask = nvp_mask(within_class_kl_map(d.moments), threshold);
    } else {
      // Single-program profiling cannot estimate within-class variation;
      // treat every point as not-varying (the paper's initial experiment).
      d.mask.assign(d.moments.pooled.mean.data().size(), 1);
    }
  });
  return out;
}

FeaturePipeline FeaturePipeline::fit(const LabeledTraces& input, PipelineConfig config) {
  const std::vector<ClassData> data = precompute(input, config);
  std::vector<const ClassData*> ptrs;
  ptrs.reserve(data.size());
  for (const ClassData& d : data) ptrs.push_back(&d);
  return fit(ptrs, config);
}

FeaturePipeline FeaturePipeline::fit(const std::vector<const ClassData*>& classes,
                                     PipelineConfig config) {
  if (classes.size() < 2) {
    throw std::invalid_argument("FeaturePipeline::fit: need >= 2 classes");
  }
  FeaturePipeline p;
  p.config_ = config;
  p.cwt_ = dsp::Cwt(config.cwt);
  p.grid_size_ = classes.front()->moments.pooled.mean.data().size();

  // Per-pair DNVP extraction, fanned out by parallel_for into slots laid
  // out in (a, b) lexicographic order, then unification (Sec. 3.1).
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < classes.size(); ++a) {
    for (std::size_t b = a + 1; b < classes.size(); ++b) pairs.emplace_back(a, b);
  }
  std::vector<std::vector<stats::GridPoint>> per_pair(pairs.size());
  runtime::parallel_for(pairs.size(), config.workers, [&](std::size_t i) {
    const ClassData& a = *classes[pairs[i].first];
    const ClassData& b = *classes[pairs[i].second];
    const linalg::Matrix between = between_class_kl_map(a.moments, b.moments);
    per_pair[i] = dnvp(between, a.mask, b.mask, config.points_per_pair);
    if (per_pair[i].empty() && config.allow_fallback_points) {
      per_pair[i] = stats::top_k(stats::local_maxima_2d(between), config.points_per_pair);
    }
  });
  p.points_ = unify_points(per_pair);
  if (p.points_.empty()) {
    throw std::runtime_error("FeaturePipeline::fit: no feature points survived selection");
  }
  if (p.points_.size() > kMaxUnifiedPoints) {
    p.points_.resize(kMaxUnifiedPoints);  // already KL-ranked
  }

  // Pass 2: the selected coefficients of every training trace, each row
  // written in its trace-order slot, so the fitted scaler/PCA never depend
  // on the worker count.
  p.index_points();
  std::vector<const sim::Trace*> windows;
  for (const ClassData* c : classes) {
    for (const sim::Trace& t : c->preprocessed) windows.push_back(&t);
  }
  linalg::Matrix x = p.gather_rows(windows, /*normalize=*/false);

  if (config.column_standardization) {
    p.scaler_ = stats::ColumnScaler::fit(x);
    x = p.scaler_.transform(x);
  }
  p.pca_ = stats::Pca::fit(x, config.pca_components);
  return p;
}

void FeaturePipeline::index_points() {
  cwt_points_.resize(points_.size());
  own_rows_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cwt_points_[i] = {points_[i].j, points_[i].k};
    own_rows_[i] = i;
  }
}

FeaturePipeline FeaturePipeline::from_parts(PipelineConfig config,
                                            std::vector<stats::GridPoint> points,
                                            stats::ColumnScaler scaler, stats::Pca pca,
                                            std::size_t grid_size) {
  if (points.empty()) {
    throw std::invalid_argument("FeaturePipeline::from_parts: no feature points");
  }
  FeaturePipeline p;
  p.config_ = config;
  p.cwt_ = dsp::Cwt(config.cwt);
  p.points_ = std::move(points);
  p.scaler_ = std::move(scaler);
  p.pca_ = std::move(pca);
  p.grid_size_ = grid_size;
  p.index_points();
  return p;
}

FeaturePipeline FeaturePipeline::renormalized(const sim::TraceSet& recal,
                                              bool rescale) const {
  if (points_.empty()) throw std::runtime_error("FeaturePipeline: not fitted");
  if (scaler_.dim() == 0) {
    throw std::logic_error(
        "FeaturePipeline::renormalized: pipeline was fitted without "
        "column_standardization");
  }
  if (recal.empty()) {
    throw std::invalid_argument("FeaturePipeline::renormalized: empty corpus");
  }
  // Selected-point features of the recalibration traces, in the pre-scaler
  // space the original column statistics were fitted in.
  std::vector<const sim::Trace*> windows;
  for (const sim::Trace& t : recal) windows.push_back(&t);
  const stats::ColumnScaler observed =
      stats::ColumnScaler::fit(gather_rows(windows, config_.per_trace_normalization));

  // Shrink the re-centring towards the training means when the budget is
  // tiny: with n recalibration traces the observed mean carries O(1/sqrt(n))
  // estimator noise, and a raw swap at n ~ 5 can cost more than the shift it
  // removes.  alpha -> 1 within a few dozen traces.
  const double n = static_cast<double>(recal.size());
  constexpr double kMeanShrink = 4.0;
  const double alpha = n / (n + kMeanShrink);
  linalg::Vector mean = scaler_.mean();
  for (std::size_t c = 0; c < mean.size(); ++c) {
    mean[c] += alpha * (observed.mean()[c] - mean[c]);
  }
  FeaturePipeline out = *this;
  out.scaler_ = stats::ColumnScaler::from_parts(
      std::move(mean), rescale ? observed.stddev() : scaler_.stddev());
  return out;
}

linalg::Matrix FeaturePipeline::gather_rows(std::span<const sim::Trace* const> windows,
                                            bool normalize) const {
  linalg::Matrix x(windows.size(), cwt_points_.size());
  for_each_block(windows, normalize, config_.workers,
                 [&](std::size_t first, std::span<const double> soa, std::size_t n,
                     std::size_t lanes) {
                   std::vector<double> g(cwt_points_.size() * lanes);
                   cwt_.gather_soa(soa, n, lanes, cwt_points_, g);
                   for (std::size_t l = 0; l < lanes; ++l) {
                     double* row = x.row(first + l).data();
                     for (std::size_t p = 0; p < cwt_points_.size(); ++p) {
                       row[p] = g[p * lanes + l];
                     }
                   }
                 });
  return x;
}

std::vector<double> FeaturePipeline::preprocess_window(const sim::Trace& trace,
                                                       bool per_trace_normalization) {
  if (!per_trace_normalization) return trace.samples;
  return normalize_window(trace.samples, trace.meta.gain_estimate);
}

linalg::Matrix FeaturePipeline::transform_soa_batch(
    std::span<const double> soa, std::size_t n, std::size_t lanes,
    std::size_t components, dsp::CwtBatchWorkspace& /*ws*/) const {
  if (points_.empty()) throw std::runtime_error("FeaturePipeline: not fitted");
  // F is point-major SoA: F(p, w) = point p of window w.
  linalg::Matrix f(cwt_points_.size(), lanes);
  cwt_.gather_soa(soa, n, lanes, cwt_points_, f.data());
  return project_soa(f.data().data(), lanes, own_rows_, {}, components);
}

linalg::Matrix FeaturePipeline::project_soa(const double* gathered, std::size_t width,
                                            std::span<const std::size_t> rows,
                                            std::span<const std::size_t> lanes,
                                            std::size_t components) const {
  if (points_.empty()) throw std::runtime_error("FeaturePipeline: not fitted");
  if (rows.size() != points_.size()) {
    throw std::invalid_argument("FeaturePipeline::project_soa: row map size mismatch");
  }
  if (config_.column_standardization && scaler_.dim() != rows.size()) {
    throw std::invalid_argument("ColumnScaler: dim mismatch");
  }
  if (rows.size() != pca_.input_dim()) {
    throw std::invalid_argument("Pca::transform: dim mismatch");
  }
  const std::size_t m = lanes.empty() ? width : lanes.size();
  const std::size_t np = rows.size();
  const std::size_t k = std::min(components, pca_.num_components());

  // Column standardization -- the exact (x - m) / s of
  // ColumnScaler::transform, lane-parallel -- doubles as the copy of this
  // pipeline's rows out of the gather.  Folding the PCA mean in here too
  // would change (f - m)/s - pm into one expression the compiler may
  // re-associate, so it stays a separate subtraction below.
  linalg::Matrix f(np, m);
  const auto standardize = [&](auto column) {
    for (std::size_t p = 0; p < np; ++p) {
      const double* __restrict src = gathered + rows[p] * width;
      double* __restrict frow = f.row(p).data();
      if (!config_.column_standardization) {
        for (std::size_t l = 0; l < m; ++l) frow[l] = src[column(l)];
        continue;
      }
      const double mu = scaler_.mean()[p], s = scaler_.stddev()[p];
      for (std::size_t l = 0; l < m; ++l) frow[l] = (src[column(l)] - mu) / s;
    }
  };
  if (lanes.empty()) {
    standardize([](std::size_t l) { return l; });
  } else {
    standardize([&](std::size_t l) { return lanes[l]; });
  }

  // Centering: the scalar Pca::transform subtracts pca_mean[p] inside its
  // reduction, once per (point, component).  Subtracting it here is the same
  // IEEE operation performed once per (point, lane) and reused by every
  // component row, so projections stay bit-identical while the inner loop
  // below becomes a pure multiply-add.
  const linalg::Vector& pmean = pca_.mean();
  for (std::size_t p = 0; p < np; ++p) {
    double* __restrict frow = f.row(p).data();
    const double pm = pmean[p];
    for (std::size_t l = 0; l < m; ++l) frow[l] -= pm;
  }

  // PCA projection with register-tiled lanes.  Each output row c
  // accumulates centered-f * axis over points in ascending order -- the
  // scalar Pca::transform reduction -- but each linalg::Tile of lanes rides
  // in registers across the whole point loop, so the row costs zero stores
  // per point instead of one per (point, lane), and T::kInterleave rows run
  // side by side on one load of f.  Tiling picks which lane and row run
  // when; each lane's sum order is untouched, so columns stay bit-identical
  // to the scalar pipeline.
  const linalg::Matrix& axes = pca_.components();
  const double* fbase = f.data().data();
  linalg::Matrix z(k, m);
  linalg::dispatch_lanes([&]<std::size_t VB>() {
    linalg::for_each_tile<VB>(m, [&]<class T>(std::size_t l0) {
      std::size_t c = 0;
      for (; c + T::kInterleave <= k; c += T::kInterleave) {
        project_tile<T, T::kInterleave>(axes, c, fbase, np, m, l0, z);
      }
      for (; c < k; ++c) project_tile<T, 1>(axes, c, fbase, np, m, l0, z);
    });
  });
  return z;
}

linalg::Vector FeaturePipeline::transform(const sim::Trace& trace,
                                          std::size_t components) const {
  // A marshalled block of one lane is the window itself.
  const std::vector<double> window = preprocess_window(trace, config_.per_trace_normalization);
  dsp::CwtBatchWorkspace ws;
  const linalg::Matrix z = transform_soa_batch(window, window.size(), 1, components, ws);
  return {z.data().begin(), z.data().end()};
}

ml::Dataset FeaturePipeline::transform(const LabeledTraces& input,
                                       std::size_t components) const {
  ml::Dataset out;
  std::vector<const sim::Trace*> windows;
  for (std::size_t c = 0; c < input.sets.size(); ++c) {
    for (const sim::Trace& t : *input.sets[c]) {
      windows.push_back(&t);
      out.y.push_back(input.labels[c]);
    }
  }
  out.x = linalg::Matrix(windows.size(), std::min(components, max_components()));
  for_each_block(windows, config_.per_trace_normalization, config_.workers,
                 [&](std::size_t first, std::span<const double> soa, std::size_t n,
                     std::size_t lanes) {
                   dsp::CwtBatchWorkspace ws;
                   const linalg::Matrix z = transform_soa_batch(soa, n, lanes, components, ws);
                   for (std::size_t l = 0; l < lanes; ++l) {
                     for (std::size_t c = 0; c < z.rows(); ++c) out.x(first + l, c) = z(c, l);
                   }
                 });
  return out;
}

}  // namespace sidis::features
