// One CWT gather per window for several fitted pipelines.
//
// The levels of a hierarchical model each select their own (scale, time)
// CWT points, but they read the same windows and share many of the points.
// A GatherPlan is the union of their points, built once when the model is
// trained or loaded; a GatherBatch computes each union coefficient of a
// length bucket once and lets every level read its feature rows from there.
// Every point is one direct kernel correlation, whichever level asks for
// it, so each union point is computed once and every level's features stay
// bit-identical to its own FeaturePipeline::transform_soa_batch.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/wavelet.hpp"
#include "features/pipeline.hpp"

namespace sidis::features {

/// The shared-gather plan of a fixed list of pipelines (slots).  Each slot
/// sits in a tier: the caller gathers the union of tiers 0..t for every
/// window, and a slot of a higher tier gathers only the rest of its points,
/// for the windows it runs on.  Holds copies of the points (no pointers into
/// the pipelines), so it survives a move of whatever owns them.  Immutable
/// once built, so const members are thread-safe.
class GatherPlan {
 public:
  /// Where the union coefficients live.
  struct Layout {
    /// The union of the slots' points, each once.  An entry belongs to the
    /// lowest tier of a slot that reads it; entries run tier by tier,
    /// (scale, time)-sorted within a tier.
    std::vector<dsp::CwtPoint> entries;
    /// entries[0, tier_end[t]) is the union of the slots of tiers <= t.
    std::vector<std::size_t> tier_end;
    /// Per slot: its pipeline's point p is entries[rows[slot][p]].
    std::vector<std::vector<std::size_t>> rows;
    /// Per slot and tier t: the slot's entries at or past tier_end[t],
    /// ascending -- what the slot gathers itself when only tiers <= t were
    /// gathered for every window.
    std::vector<std::vector<std::vector<std::size_t>>> own;
  };

  GatherPlan() = default;

  /// Slot s reads pipelines[s]'s points (nullptr: a slot with none, such as
  /// a single-class level) and sits in tier tiers[s].  The pipelines must
  /// share one CWT configuration and one per-trace normalization setting;
  /// throws std::invalid_argument otherwise.
  GatherPlan(std::span<const FeaturePipeline* const> pipelines,
             std::span<const std::size_t> tiers);

  /// The union layout, built with the plan; it serves windows of any
  /// length.  Throws std::logic_error on an empty plan.
  const Layout& layout() const;

  std::size_t slots() const { return layout_.rows.size(); }
  /// The filter bank every slot gathers with.
  const dsp::Cwt& cwt() const { return cwt_; }
  /// Whether the slots read per-trace-normalized windows.
  bool normalize() const { return normalize_; }

 private:
  dsp::Cwt cwt_;
  bool normalize_ = false;
  Layout layout_;
};

/// One length bucket's shared gather: the union of the every-window tiers,
/// gathered once for all windows, plus the rows each higher-tier slot
/// gathers for its own windows.  Grow-once scratch: one instance serves a
/// sequence of buckets.  Not thread-safe: one per worker.
class GatherBatch {
 public:
  /// Starts a bucket of `windows` (all one length, preprocessed per
  /// plan.normalize(); the pointers must outlive the bucket) and gathers
  /// the union of the slots of tiers <= `tier` for every window, on the
  /// struct-of-arrays kernels whatever the width (a bucket of one is a
  /// one-lane pass, as cheap as the scalar gather; see linalg/lanes.hpp).
  void begin(const GatherPlan& plan, std::span<const std::vector<double>* const> windows,
             std::size_t tier);

  /// Features of slot `slot` (whose pipeline is `pipeline`) on the bucket
  /// windows `lanes` (ascending, one or more): the slot's rows in the shared
  /// union are read from it, the others gathered for these windows only.
  /// (components x lanes), column i bit-identical to
  /// pipeline.transform_soa_batch on window lanes[i] alone.
  linalg::Matrix features(std::size_t slot, const FeaturePipeline& pipeline,
                          std::span<const std::size_t> lanes, std::size_t components);

 private:
  /// Gathers `slot`'s rows outside the shared union for `lanes` into their
  /// union rows of g_.
  void gather_own(std::size_t slot, std::span<const std::size_t> lanes);

  const GatherPlan* plan_ = nullptr;
  const GatherPlan::Layout* layout_ = nullptr;
  std::span<const std::vector<double>* const> windows_;
  std::size_t n_ = 0;      ///< samples per window
  std::size_t width_ = 0;  ///< windows in the bucket
  std::size_t tier_ = 0;
  std::vector<double> soa_;       ///< the bucket, marshalled
  std::vector<double> lane_soa_;  ///< a sub-batch, copied out of soa_
  std::vector<double> g_;         ///< entries x width_: union row e, per window
  std::vector<double> own_;       ///< a slot's own rows, for its lanes
  std::vector<dsp::CwtPoint> points_;
};

}  // namespace sidis::features
