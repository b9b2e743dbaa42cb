// One CWT gather per window for several fitted pipelines.
//
// The levels of a hierarchical model each select their own (scale, time)
// CWT points, but they read the same windows and share many of the points.
// A GatherPlan is the union of their points, built once when the model is
// trained or loaded; a GatherBatch computes each union coefficient of a
// length bucket once and lets every level read its feature rows from there:
// the group level's points for every window, each other level's remaining
// points for the windows that level runs on.
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

/// The shared-gather plan of a fixed list of pipelines (slots).  Slot 0 is
/// the shared slot: the caller gathers its points once for every window of
/// a bucket, and every other slot gathers only the rest of its points, for
/// the windows it runs on.  Holds copies of the points (no pointers into the
/// pipelines), so it survives a move of whatever owns them.  Immutable once
/// built, so const members are thread-safe.
class GatherPlan {
 public:
  /// Where the union coefficients live.
  struct Layout {
    /// The union of the slots' points, each once: slot 0's points first,
    /// then the others', each run (scale, time)-sorted.
    std::vector<dsp::CwtPoint> entries;
    /// entries[0, shared) are slot 0's points.
    std::size_t shared = 0;
    /// Per slot: its pipeline's point p is entries[rows[slot][p]].
    std::vector<std::vector<std::size_t>> rows;
    /// Per slot: its entries at or past `shared`, ascending -- what the slot
    /// gathers itself.
    std::vector<std::vector<std::size_t>> own;
  };

  GatherPlan() = default;

  /// Slot s reads pipelines[s]'s points (nullptr: a slot with none, such as
  /// a single-class level).  The pipelines must share one CWT configuration
  /// and one per-trace normalization setting; throws std::invalid_argument
  /// otherwise.
  explicit GatherPlan(std::span<const FeaturePipeline* const> pipelines);

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

/// One length bucket's shared gather: slot 0's points, gathered once for all
/// windows, plus the rows each other slot gathers for its own windows.
/// Grow-once scratch: one instance serves a sequence of buckets.  Not
/// thread-safe: one per worker.
class GatherBatch {
 public:
  /// Starts a bucket of `windows` (all one length, preprocessed per
  /// plan.normalize(); the pointers must outlive the bucket) and gathers
  /// slot 0's points for every window, on the struct-of-arrays kernels
  /// whatever the width (a bucket of one is a one-lane pass, as cheap as the
  /// scalar gather; see linalg/lanes.hpp).
  void begin(const GatherPlan& plan, std::span<const std::vector<double>* const> windows);

  /// Features of slot `slot` (whose pipeline is `pipeline`) on the bucket
  /// windows `lanes` (ascending, one or more): the slot's rows among slot
  /// 0's are read from the shared gather, the others gathered for these
  /// windows only.
  /// (components x lanes), column i bit-identical to
  /// pipeline.transform_soa_batch on window lanes[i] alone.
  linalg::Matrix features(std::size_t slot, const FeaturePipeline& pipeline,
                          std::span<const std::size_t> lanes, std::size_t components);

 private:
  /// Gathers `slot`'s own rows (past the shared ones) for `lanes` into their
  /// union rows of g_.
  void gather_own(std::size_t slot, std::span<const std::size_t> lanes);

  const GatherPlan* plan_ = nullptr;
  const GatherPlan::Layout* layout_ = nullptr;
  std::span<const std::vector<double>* const> windows_;
  std::size_t n_ = 0;      ///< samples per window
  std::size_t width_ = 0;  ///< windows in the bucket
  std::vector<double> soa_;       ///< the bucket, marshalled
  std::vector<double> lane_soa_;  ///< a sub-batch, copied out of soa_
  std::vector<double> g_;         ///< entries x width_: union row e, per window
  std::vector<double> own_;       ///< a slot's own rows, for its lanes
  std::vector<dsp::CwtPoint> points_;
};

}  // namespace sidis::features
