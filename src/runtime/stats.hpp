// Runtime telemetry of the serving layer: counters, queue high-water marks,
// and per-stage latency histograms, all snapshot-able while the fleet is
// live.  Sec. 5.4 of the paper frames real-time disassembly as a
// latency budget ("~0.25 ns per instruction on a 1 GHz 4-wide core"); the
// histogram is how a deployment checks where its budget actually goes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sidis::runtime {

/// Log2-bucketed latency histogram over nanoseconds.  Bucket b counts
/// samples in [2^b, 2^(b+1)) ns; bucket 0 also absorbs sub-nanosecond
/// samples.  Fixed bucket count keeps snapshots allocation-free and covers
/// ~1 ns .. ~1.2 s, beyond anything a per-trace stage can take.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 31;

  void record(std::uint64_t nanos) {
    std::size_t b = 0;
    while (b + 1 < kBuckets && nanos >= (std::uint64_t{2} << b)) ++b;
    ++buckets_[b];
    ++count_;
    total_nanos_ += nanos;
    if (nanos > max_nanos_) max_nanos_ = nanos;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    total_nanos_ += other.total_nanos_;
    if (other.max_nanos_ > max_nanos_) max_nanos_ = other.max_nanos_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max_nanos() const { return max_nanos_; }
  double mean_nanos() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_nanos_) / static_cast<double>(count_);
  }

  /// Smallest bucket upper bound below which at least `q` (in [0,1]) of the
  /// recorded samples fall -- a conservative quantile estimate.
  std::uint64_t quantile_upper_nanos(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  /// One-line rendering, e.g. "n=1000 mean=1.2us p50<2us p99<8us max=7.4us".
  std::string summary() const;

  /// summary() for histograms recording plain counts instead of nanoseconds
  /// (e.g. windows per batch): same shape, unitless numbers.
  std::string summary_counts() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_nanos_ = 0;
  std::uint64_t max_nanos_ = 0;
};

/// Point-in-time snapshot of a fleet shard's counters (FleetStats::runtime
/// sums them over every shard).  Plain values -- safe to copy around, print,
/// or diff between two instants.
struct RuntimeStats {
  std::uint64_t traces_submitted = 0;  ///< accepted by submit()
  std::uint64_t traces_completed = 0;  ///< classified by a worker
  std::uint64_t traces_emitted = 0;    ///< handed to the consumer, in order
  std::uint64_t traces_failed = 0;     ///< classify threw; default result emitted
  /// Reject-option outcomes (core::Verdict of each classified window).  All
  /// zero until the wrapped model has calibrated reject gates.
  std::uint64_t traces_rejected = 0;   ///< class-level gate tripped
  std::uint64_t traces_degraded = 0;   ///< off-distribution / operand gate
  /// Fault-injection telemetry, from TraceMeta::fault_severity ground truth
  /// (robustness sweeps stream faulted corpora through the fleet).
  std::uint64_t traces_faulted = 0;    ///< windows with fault_severity > 0
  double fault_severity_sum = 0.0;     ///< sum over faulted windows
  double max_fault_severity = 0.0;     ///< worst severity seen
  /// Stage hot-swaps performed (FleetFrontend::swap_stage) -- e.g. a
  /// scheduler publishing a recalibrated template set mid-stream.
  std::uint64_t model_swaps = 0;
  /// Jobs the shard dispatchers handed to their workers.  traces_submitted /
  /// batches_submitted is the realized coalescing factor.
  std::uint64_t batches_submitted = 0;
  /// Batch-amortization telemetry of the worker pool: how many windows each
  /// batched classification pass carried (the realized lane count of the
  /// SoA hot path -- one sample per pass of more than one window, value =
  /// windows; single-window passes are not sampled), and how classify
  /// wall-time splits between batched passes and scalar ones (single-window
  /// passes).  So the mean of
  /// windows_per_batch describes the batched passes only; the share of
  /// windows that ran scalar is scalar_classified_windows over both counts,
  /// and report() prints it.  batch_classify_nanos /
  /// batch_classified_windows vs the scalar ratio is the in-situ
  /// amortization factor a deployment actually realizes.
  LatencyHistogram windows_per_batch;       ///< counts, not nanos
  std::uint64_t batch_classify_nanos = 0;   ///< wall time inside batch passes
  std::uint64_t scalar_classify_nanos = 0;  ///< wall time inside scalar passes
  std::uint64_t batch_classified_windows = 0;
  std::uint64_t scalar_classified_windows = 0;
  /// Sequence-decoding telemetry (decode_sequence streams): windows emitted
  /// through a lattice decoder, and how many of them had their class
  /// rewritten by the transition prior.
  std::uint64_t windows_decoded = 0;
  std::uint64_t windows_smoothed = 0;
  /// Drift-monitor telemetry (monitor_drift streams), one count per observed
  /// window: folded straight from the classify walk's monitor features, or
  /// re-transformed by the monitor because the window's stage was not the
  /// monitor's own model.
  std::uint64_t monitor_folds = 0;
  std::uint64_t monitor_retransforms = 0;
  /// Admission-control outcomes (a kBlock stream never sheds or refuses --
  /// it waits): windows shed after admission (kShedOldest reclaiming credit)
  /// and submissions refused outright (kRejectNew, or nothing sheddable).
  std::uint64_t windows_shed = 0;
  std::uint64_t windows_rejected = 0;
  std::size_t queue_depth_high_water = 0;     ///< jobs awaiting a worker, peak
  std::size_t in_flight_high_water = 0;       ///< accepted-not-yet-classified peak
  std::size_t workers = 0;
  LatencyHistogram queue_wait;   ///< submit -> worker pickup
  LatencyHistogram classify;     ///< feature extraction + hierarchy walk
  LatencyHistogram end_to_end;   ///< admission -> ready for the consumer

  /// Folds another snapshot into this one: counters add, histograms merge,
  /// high-water marks take the max, workers add.  How FleetFrontend
  /// sums its shards into one fleet-wide record.
  void merge(const RuntimeStats& other);

  /// Multi-line human-readable report.
  std::string report() const;
};

}  // namespace sidis::runtime
