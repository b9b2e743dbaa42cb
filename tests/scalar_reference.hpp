// The fitted feature map of Fig. 1 (CWT at the selected points -> column
// standardization -> PCA) spelled out on its scalar definitions:
// Cwt::coefficient per point, ColumnScaler::transform and Pca::transform per
// window.  Every FeaturePipeline entry point runs the struct-of-arrays
// kernels; the tests hold them against this, bit for bit.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "features/pipeline.hpp"

namespace sidis::reference {

/// The bits of a double, for exact comparisons (-0.0 and NaN included).
inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The raw coefficients of `window` at `points`, one Cwt::coefficient each.
inline linalg::Vector raw_features(const dsp::Cwt& cwt, const std::vector<double>& window,
                                   const std::vector<stats::GridPoint>& points) {
  linalg::Vector out(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = cwt.coefficient(window, points[i].j, points[i].k);
  }
  return out;
}

/// The pipeline's standardization and projection of one window's raw
/// coefficients (one per pipeline point).
inline linalg::Vector project(const features::FeaturePipeline& pipeline, linalg::Vector raw,
                              std::size_t components) {
  if (pipeline.config().column_standardization) raw = pipeline.scaler().transform(raw);
  return pipeline.pca().transform(raw, components);
}

/// The pipeline's features of a window already preprocessed for it
/// (FeaturePipeline::preprocess_window).
inline linalg::Vector features_of_prepared(const features::FeaturePipeline& pipeline,
                                           const std::vector<double>& prepared,
                                           std::size_t components = SIZE_MAX) {
  return project(pipeline, raw_features(pipeline.cwt(), prepared, pipeline.unified_points()),
                 components);
}

/// The pipeline's features of a raw trace.
inline linalg::Vector features_of(const features::FeaturePipeline& pipeline,
                                  const sim::Trace& trace,
                                  std::size_t components = SIZE_MAX) {
  return features_of_prepared(
      pipeline,
      features::FeaturePipeline::preprocess_window(trace,
                                                   pipeline.config().per_trace_normalization),
      components);
}

}  // namespace sidis::reference
