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
  if (p.points_.size() > config.max_unified_points) {
    p.points_.resize(config.max_unified_points);  // already KL-ranked
  }

  // Pass 2: extract selected coefficients for every training trace, one
  // parallel_for index per trace.  Rows land in their trace-order slots and
  // every row is computed independently, so the fitted scaler/PCA never
  // depend on the worker count.
  std::vector<const std::vector<double>*> samples;
  for (const ClassData* c : classes) {
    for (const sim::Trace& t : c->preprocessed) samples.push_back(&t.samples);
  }
  std::vector<linalg::Vector> rows(samples.size());
  runtime::parallel_for(samples.size(), config.workers, [&](std::size_t i) {
    rows[i] = extract_features(p.cwt_, *samples[i], p.points_);
  });
  linalg::Matrix x = linalg::Matrix::from_rows(rows);

  if (config.column_standardization) {
    p.scaler_ = stats::ColumnScaler::fit(x);
    x = p.scaler_.transform(x);
  }
  p.pca_ = stats::Pca::fit(x, config.pca_components);
  p.index_points();
  return p;
}

void FeaturePipeline::index_points() {
  point_js_.resize(points_.size());
  point_ks_.resize(points_.size());
  own_rows_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    point_js_[i] = points_[i].j;
    point_ks_[i] = points_[i].k;
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
  std::vector<linalg::Vector> rows(recal.size());
  runtime::parallel_for(recal.size(), config_.workers, [&](std::size_t i) {
    const std::vector<double> prep =
        config_.per_trace_normalization
            ? normalize_window(recal[i].samples, recal[i].meta.gain_estimate)
            : recal[i].samples;
    rows[i] = extract_features(cwt_, prep, points_);
  });
  const stats::ColumnScaler observed =
      stats::ColumnScaler::fit(linalg::Matrix::from_rows(rows));

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

std::vector<double> FeaturePipeline::preprocess_window(const sim::Trace& trace,
                                                       bool per_trace_normalization) {
  if (!per_trace_normalization) return trace.samples;
  return normalize_window(trace.samples, trace.meta.gain_estimate);
}

linalg::Vector FeaturePipeline::transform_prepared(const std::vector<double>& prepared,
                                                   std::size_t components) const {
  if (points_.empty()) throw std::runtime_error("FeaturePipeline: not fitted");
  const linalg::Vector v = cwt_.coefficients(prepared, point_js_, point_ks_);
  return project(v.data(), 1, own_rows_, components);
}

linalg::Vector FeaturePipeline::project(const double* gathered, std::size_t stride,
                                        std::span<const std::size_t> rows,
                                        std::size_t components) const {
  if (points_.empty()) throw std::runtime_error("FeaturePipeline: not fitted");
  if (rows.size() != points_.size()) {
    throw std::invalid_argument("FeaturePipeline::project: row map size mismatch");
  }
  if (config_.column_standardization && scaler_.dim() != rows.size()) {
    throw std::invalid_argument("ColumnScaler: dim mismatch");
  }
  // The exact (x - m) / s of ColumnScaler::transform, reading x straight
  // out of the gather.
  linalg::Vector v(rows.size());
  if (config_.column_standardization) {
    const linalg::Vector& smean = scaler_.mean();
    const linalg::Vector& sstd = scaler_.stddev();
    for (std::size_t p = 0; p < rows.size(); ++p) {
      v[p] = (gathered[rows[p] * stride] - smean[p]) / sstd[p];
    }
  } else {
    for (std::size_t p = 0; p < rows.size(); ++p) v[p] = gathered[rows[p] * stride];
  }
  return pca_.transform(v, components);
}

linalg::Matrix FeaturePipeline::transform_soa_batch(
    std::span<const double> soa, std::size_t n, std::size_t lanes,
    std::size_t components, dsp::CwtBatchWorkspace& ws) const {
  if (points_.empty()) throw std::runtime_error("FeaturePipeline: not fitted");
  // F is point-major SoA: F(p, w) = point p of window w.
  const linalg::Matrix f = cwt_.coefficients_soa(soa, n, lanes, point_js_, point_ks_, ws);
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
  if (!config_.per_trace_normalization) return transform_prepared(trace.samples, components);
  return transform_prepared(normalize_window(trace.samples, trace.meta.gain_estimate),
                            components);
}

linalg::Vector FeaturePipeline::transform(const std::vector<double>& samples,
                                          std::size_t components) const {
  sim::Trace t;
  t.samples = samples;
  return transform(t, components);
}

ml::Dataset FeaturePipeline::transform(const LabeledTraces& input,
                                       std::size_t components) const {
  ml::Dataset out;
  std::vector<const sim::Trace*> flat;
  for (std::size_t c = 0; c < input.sets.size(); ++c) {
    for (const sim::Trace& t : *input.sets[c]) {
      flat.push_back(&t);
      out.y.push_back(input.labels[c]);
    }
  }
  std::vector<linalg::Vector> rows(flat.size());
  runtime::parallel_for(flat.size(), config_.workers,
                        [&](std::size_t i) { rows[i] = transform(*flat[i], components); });
  out.x = linalg::Matrix::from_rows(rows);
  return out;
}

ml::Dataset FeaturePipeline::transform(const sim::TraceSet& traces, int label,
                                       std::size_t components) const {
  ml::Dataset out;
  out.y.assign(traces.size(), label);
  std::vector<linalg::Vector> rows(traces.size());
  runtime::parallel_for(traces.size(), config_.workers,
                        [&](std::size_t i) { rows[i] = transform(traces[i], components); });
  out.x = linalg::Matrix::from_rows(rows);
  return out;
}

}  // namespace sidis::features
