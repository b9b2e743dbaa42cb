// The serving front end: logical device streams multiplexed onto a few
// worker shards.
//
// The paper watches ONE device (Sec. 5.4: a monitor disassembling live
// windows in real time); the production problem is a fleet.  A thousand
// monitored devices each emit a few windows per second -- far too little to
// justify dedicated worker threads per device, far too much aggregate for
// one serial consumer.  The frontend gives every device a cheap logical
// stream handle and shares the expensive part (worker threads,
// feature-extraction passes, model instances) across all of them.  A single
// monitored device is the one-stream case: one shard, one stream, kBlock.
//
//   open_stream(opts) -> StreamId            per-stream model + drift monitor
//        |
//   submit(stream, window)                   admission control (credit:
//        |                                   block / shed-oldest / reject-new)
//   [per-stream pending queues]
//        |
//   shard dispatcher                         coalesces windows of many
//        |                                   streams with the SAME stage
//   JobRunner::dispatch(job)                 into one batched classify pass;
//        |                                   each window carries its route
//   slot FIFO -> per-stream DeliveryQueue    (stream, sequence, admit time)
//        |
//   poll(stream) / close_stream(stream)      swap_stage(stream, stage)
//
// Shards.  Streams are assigned round-robin to `shards` shards (stream id
// modulo shard count).  Each shard owns a JobRunner with
// `workers_per_shard` threads (runtime/job_runner.hpp) and ONE mutex that
// guards everything on the shard: per-stream queues, the dispatch
// round-robin and the runner's slot FIFO, whose workers take the same lock
// to pick a job up and to complete it.  Streams on different shards never
// contend.  A finished job is pumped off the head of the FIFO in dispatch
// order and each window goes straight to its own stream by the route it
// carries, so there is no second reorder stage and no route table.
//
// Batching.  The dispatcher drains pending windows round-robin across the
// shard's streams -- every queued stream contributes one window before any
// stream contributes a second (fairness) -- packing up to batch_max windows
// that share a model stage into one job; when fewer streams are queued than
// the batch has room, the round-robin keeps cycling so deep per-stream
// backlogs still fill batches.
// Streams serving different models are never mixed into one batch -- a batch
// is classified by exactly one model -- but they interleave batch-by-batch
// on the same shard.  Each window is pinned to its stream's stage when it is
// admitted, so a swap_stage never reaches windows admitted before it.  Batch
// grouping depends on arrival timing and is NOT deterministic; per-window
// results are, because classify_batch is bit-identical to per-window
// classify for any grouping (the fleet_test battery pins this across 1/2/8
// workers).
//
// Admission control.  Under kShedOldest and kRejectNew each stream holds at
// most `stream_credit` undelivered windows (pending + in flight + ready).
// Over-credit submissions either shed the oldest reclaimable window
// (kShedOldest: oldest pending, else oldest ready; windows already
// dispatched cannot be reclaimed) or are refused (kRejectNew).  Under kBlock
// the credit bounds the stream's UNCLASSIFIED windows (pending + in flight)
// and submit() waits for room: ready results do not count, so a thread that
// submits and then polls never blocks on itself.  Admission is per-stream:
// one device flooding its credit never steals another stream's capacity,
// because shard depth (the shard's one in-flight credit) is only consumed by
// dispatch, which is fair.  Counts surface per stream (StreamStats), per
// fleet (FleetStats), and in RuntimeStats::windows_shed / windows_rejected.
//
// Drift isolation.  A stream opened with monitor_drift gets its OWN
// DriftMonitor bound to its own model; observations are fed in delivery
// order during result pump-back, so one drifting device raises its own
// events (poll_drift_event) and never contaminates a neighbor's statistics.
// The classify walk of a model-backed stage keeps each window's
// monitor-space features, and the pump folds them with one EWMA step when
// the stage's model is the monitor's (RuntimeStats::monitor_folds).  After a
// swap_stage to another model, or on a fused or custom stage, the monitor
// transforms the finished job's window itself
// (RuntimeStats::monitor_retransforms).  No delivered result keeps its
// features: workers drop those of unmonitored streams (Job::Route::
// monitored), and the pump those it folded.
//
// Thread-safety contract: every public method is safe from any thread; the
// shard mutex serializes internally.  Submissions to ONE stream should come
// from one thread at a time (submit/submit races on a single stream would
// make its admission order, and hence its sequence numbers, unspecified --
// nothing breaks, but per-stream FIFO only means what the caller's own
// ordering means); a producer blocked in a kBlock submit() may be served by
// a consumer polling from another thread, and close_stream from any thread
// cancels it.  close_stream blocks until the stream's in-flight windows
// complete; it must not be called under a lock the classify path needs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/drift.hpp"
#include "runtime/job_runner.hpp"
#include "runtime/registry.hpp"
#include "sim/acq_config.hpp"

namespace sidis::runtime {

/// What to do with a submission that would exceed the stream's credit.
enum class AdmissionPolicy : std::uint8_t {
  kRejectNew = 0,   ///< refuse the new window; the backlog is preserved
  kShedOldest = 1,  ///< shed the oldest reclaimable window to admit the new
  kBlock = 2,       ///< wait until the stream's unclassified windows fit
};

std::string to_string(AdmissionPolicy policy);

struct FleetConfig {
  /// Worker shards; streams spread round-robin.
  std::size_t shards = 2;
  /// Worker threads per shard.
  std::size_t workers_per_shard = 2;
  /// Max windows coalesced into one batched classify pass.
  std::size_t batch_max = 16;
  /// Per-stream cap on admitted-but-undelivered windows (pending + in
  /// flight + ready); under kBlock, on unclassified ones (pending + in
  /// flight).
  std::size_t stream_credit = 32;
  AdmissionPolicy admission = AdmissionPolicy::kRejectNew;
  /// The shard's one in-flight credit: windows dispatched to its workers but
  /// not yet classified (0 = max(4 * batch_max, 64); never below batch_max).
  std::size_t shard_depth = 0;
};

/// How open_stream resolves the stream's model.
struct StreamOptions {
  /// Registry bundle to serve ("" = the fleet's default model).  Requires
  /// the fleet to have been built with a registry.
  std::string model_name;
  /// Bundle version (0 = the bundle's latest version when the fleet first
  /// resolves it; later saves do not move that pin, so a fleet never flips
  /// the model under a "latest" stream -- roll out by opening new streams or
  /// through swap_stage).
  int model_version = 0;
  /// Arm a per-stream DriftMonitor (needs a model with training moments).
  bool monitor_drift = false;
  DriftConfig drift;
  /// Route this stream's results through a per-stream SequenceDecoder fed in
  /// delivery order (the same isolation as the drift monitor: one device's
  /// lattice never sees a neighbor's windows).  The stream is served by the
  /// posterior-scoring stage of its model, so every window carries the
  /// emissions the lattice needs; results gain sequence_confidence/smoothed.
  /// Requires a model-backed stream and a non-null decode_prior covering the
  /// model's posterior support (else open_stream throws).
  bool decode_sequence = false;
  SequenceDecoderConfig decode;
  std::shared_ptr<const core::TransitionPrior> decode_prior;
  /// When set, every window submitted to the stream must carry this
  /// acquisition stamp (TraceMeta::samples_per_cycle / adc_bits, written by
  /// the capture campaign) and the matching window length; submit() throws
  /// std::invalid_argument otherwise, before a sequence number is reserved.
  /// Guards a monitor against mixing corpora captured at different front-end
  /// configurations behind one model -- templates fitted on one grid
  /// silently misclassify windows from another.
  std::optional<sim::AcquisitionConfig> expected_acquisition;
};

enum class AdmitStatus : std::uint8_t {
  kAccepted = 0,          ///< admitted within credit
  kAcceptedShedOldest = 1,///< admitted; the stream's oldest window was shed
  kRejected = 2,          ///< refused (kRejectNew, or nothing reclaimable)
  kClosed = 3,            ///< unknown or closing stream
};

/// Outcome of one submit(): status plus the admitted window's per-stream
/// sequence number (valid only when accepted()).
struct AdmitResult {
  AdmitStatus status = AdmitStatus::kRejected;
  std::uint64_t stream_sequence = 0;

  bool accepted() const {
    return status == AdmitStatus::kAccepted ||
           status == AdmitStatus::kAcceptedShedOldest;
  }
};

/// Telemetry of one live stream.
struct StreamStats {
  std::uint64_t windows_admitted = 0;
  std::uint64_t windows_delivered = 0;
  std::uint64_t windows_shed = 0;
  std::uint64_t windows_rejected = 0;
  std::uint64_t drift_events = 0;
  std::uint64_t outstanding = 0;  ///< admitted - delivered - shed
};

/// Fleet-wide snapshot: frontend counters plus the shards' runtime records.
struct FleetStats {
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::uint64_t streams_live = 0;
  std::uint64_t windows_admitted = 0;
  std::uint64_t windows_delivered = 0;
  std::uint64_t windows_shed = 0;
  std::uint64_t windows_rejected = 0;
  std::uint64_t drift_events = 0;
  std::size_t models_cached = 0;  ///< distinct registry artifacts loaded
  /// Every shard's runtime record summed: dispatch, classify, decode and
  /// admission counters (windows_shed / windows_rejected above are read
  /// from it).
  RuntimeStats runtime;
  /// submit() admission -> poll() delivery, per window.
  LatencyHistogram admit_to_deliver;

  std::string report() const;
};

class FleetFrontend {
 public:
  using StreamId = std::uint64_t;

  /// Model-backed fleet: the stage-backed fleet of make_stage(default_model).
  FleetFrontend(std::shared_ptr<const core::HierarchicalDisassembler> default_model,
                FleetConfig config = {}, const ModelRegistry* registry = nullptr);
  /// Streams opened without a model_name run `default_stage`.  `registry`,
  /// when non-null, must outlive the frontend and enables per-stream model
  /// resolution by name/version.  monitor_drift and decode_sequence need a
  /// model-backed stream (Stage::model non-null): a default stage built by
  /// make_stage(model), or any registry-resolved one; fused and custom
  /// default stages serve plain streams only.
  FleetFrontend(StageRef default_stage, FleetConfig config = {},
                const ModelRegistry* registry = nullptr);

  /// Stops the shard workers; undelivered results of still-open streams are
  /// discarded (close_stream first when every window must come back).
  ~FleetFrontend();

  FleetFrontend(const FleetFrontend&) = delete;
  FleetFrontend& operator=(const FleetFrontend&) = delete;

  /// Opens a logical device stream and returns its handle.  Cheap: no
  /// threads are created; a registry-resolved model is loaded at most once
  /// fleet-wide.  Throws std::invalid_argument on unresolvable options and
  /// like DriftMonitor's constructor when monitor_drift is set on a model
  /// without training moments.
  StreamId open_stream(StreamOptions options = {});

  /// Admission-controlled submit of one window.  Over-credit submissions
  /// shed or reject per the configured policy, or under kBlock wait --
  /// pumping and dispatching the shard -- until the stream has room; a
  /// close_stream meanwhile makes the waiting submit return kClosed.  Throws
  /// std::invalid_argument when the window misses the stream's
  /// expected_acquisition.
  AdmitResult submit(StreamId stream, sim::Trace trace);

  /// Next in-order result of `stream`, if ready; non-blocking.  Also pumps
  /// completed shard results and dispatches pending windows, so a
  /// submit/poll loop makes progress without a dedicated scheduler thread.
  std::optional<FleetResult> poll(StreamId stream);

  /// Pending drift event of `stream`, if its monitor raised one (FIFO; at
  /// most one per DriftMonitor cooldown by construction).
  std::optional<DriftEvent> poll_drift_event(StreamId stream);

  /// Graceful close: stops admitting (waking a submit blocked on the
  /// stream's credit), waits for the stream's in-flight windows to classify,
  /// and returns every undelivered result in order.  Idempotent (an
  /// unknown/closed stream returns empty).  Blocks.
  std::vector<FleetResult> close_stream(StreamId stream);

  /// Atomically replaces the stream's classification stage while it serves
  /// -- how a scheduler publishes a recalibrated template set without
  /// dropping a window.  Windows admitted after the swap are classified by
  /// `stage`; windows admitted before it keep the stage they were admitted
  /// under, so every result names (FleetResult::model_stamp) the one model
  /// that produced it.  The stream's drift monitor is left as it is.
  /// Counted in RuntimeStats::model_swaps; no effect on an unknown stream.
  /// Throws std::invalid_argument on a null stage or one without a classify
  /// function.
  void swap_stage(StreamId stream, StageRef stage);

  /// Telemetry of one stream (zeros for unknown streams).
  StreamStats stream_stats(StreamId stream) const;

  /// Fleet-wide snapshot (sums every shard; see FleetStats).
  FleetStats stats() const;

  const FleetConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Admitted window awaiting dispatch, with the route its result takes and
  /// the stage it was admitted under.
  struct PendingWindow {
    Job::Route route;
    StageRef stage;
    sim::Trace trace;
  };
  struct StreamState {
    StageRef stage;  ///< always non-null; pinned by each admitted window
    std::unique_ptr<DriftMonitor> monitor;
    std::optional<sim::AcquisitionConfig> expected_acquisition;
    /// Ready results in delivery order, behind a per-stream lattice smoother
    /// for decode_sequence streams.
    DeliveryQueue out;
    std::deque<PendingWindow> pending;
    std::deque<DriftEvent> events;
    std::uint64_t next_sequence = 0;
    std::uint64_t admitted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t drift_events = 0;
    std::uint64_t dispatched = 0;  ///< handed to the shard's workers
    std::uint64_t arrived = 0;     ///< pumped back into `out`
    bool queued_for_dispatch = false;
    bool closing = false;

    std::uint64_t outstanding() const { return admitted - delivered - shed; }
    /// Admitted windows not yet classified: the kBlock credit in use.
    std::uint64_t unclassified() const {
      return pending.size() + dispatched - arrived;
    }
  };
  struct Shard {
    explicit Shard(std::size_t workers) : runner(mutex, workers) {}

    mutable std::mutex mutex;
    std::map<StreamId, StreamState> streams;
    std::deque<StreamId> dispatch_queue;  ///< streams with pending windows
    std::size_t pending_windows = 0;      ///< total windows awaiting dispatch
    // Shard-lifetime aggregates (survive stream close); shed / rejected /
    // decode counts go straight into runner.stats().
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;
    std::uint64_t admitted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t drift_events = 0;
    LatencyHistogram admit_to_deliver;
    JobRunner runner;  ///< last member: joins its workers before teardown
  };

  void init_shards();
  Shard& shard_of(StreamId stream) { return *shards_[stream % shards_.size()]; }
  const Shard& shard_of(StreamId stream) const {
    return *shards_[stream % shards_.size()];
  }
  /// Pumps finished jobs into per-stream delivery queues, feeding drift
  /// monitors along the way and dropping every result's monitor features.
  /// Caller holds the shard mutex.
  void pump_locked(Shard& shard);
  /// Coalesces pending windows into stage-homogeneous jobs while the shard
  /// has credit.  Caller holds the shard mutex.
  void dispatch_locked(Shard& shard);
  /// Hands one ready result to the caller, closing its ledger entry.
  /// Caller holds the shard mutex.
  static FleetResult deliver_locked(Shard& shard, StreamState& s, Ready ready);
  /// The stage a new stream with `options` serves, from the one model
  /// cache: loads a registry artifact on its first use and builds an
  /// artifact's scored stage on its first decode_sequence stream.
  StageRef resolve_stage(const StreamOptions& options);

  /// One artifact's stages.  Streams of one artifact share them -- stage
  /// identity is what lets the dispatcher batch their windows together --
  /// and the scored twin (decode_sequence streams) is a distinct stage, so
  /// plain and scored windows never share a batch.
  struct CachedModel {
    StageRef plain;
    StageRef scored;  ///< built at the artifact's first decode_sequence stream
  };

  FleetConfig config_;
  const ModelRegistry* registry_;  ///< null: only the default stage serves
  mutable std::mutex models_mutex_;
  /// (bundle, concrete version) -> stages; the fleet's default stage is the
  /// ("", 0) entry.  Stamps are the artifacts' checksums.
  std::map<std::pair<std::string, int>, CachedModel> models_;
  /// Bundle -> the version "latest" (0) resolved to at its first use.
  std::map<std::string, int> latest_;
  std::atomic<StreamId> next_stream_id_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sidis::runtime
