// Parallel streaming disassembly engine -- the serving layer between
// `core::disassemble` and a live trace stream.
//
// The paper's real-time framing (Sec. 5.4) is a producer/consumer problem:
// per-instruction windows arrive at capture rate, classification costs a few
// hundred kernel correlations each, so the only way to keep up is to fan the
// windows out across cores.  The engine does exactly that while preserving
// the one property a disassembler cannot lose: *output order is submission
// order*, no matter how out-of-order the workers complete.
//
//   submit(trace) -> seq       bounded, blocking backpressure
//        |                     (BoundedQueue + in-flight credits)
//     [worker pool]            model.classify per trace, any order
//        |
//   reorder buffer             seq -> result, emitted strictly in order
//        |
//   poll() / drain()           consumer side; drain() waits everything out
//
// Thread-safety contract: any number of producer threads may call submit()
// concurrently; poll()/drain() belong to ONE consumer thread; stats() and
// request_stop() are safe from anywhere.  The wrapped model is shared
// read-only across workers (see the contract note in core/hierarchical.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/sequence.hpp"

namespace sidis::core {
class FusedDisassembler;
}
#include "runtime/bounded_queue.hpp"
#include "runtime/decoder.hpp"
#include "runtime/stats.hpp"
#include "sim/acq_config.hpp"
#include "sim/trace.hpp"

namespace sidis::runtime {

struct StreamingConfig {
  /// Worker threads (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Work-queue capacity; submit() blocks when this many traces await a
  /// worker.  Small on purpose -- the queue is a shock absorber, not a lake.
  std::size_t queue_capacity = 64;
  /// Cap on accepted-but-not-yet-classified traces (0 = queue_capacity +
  /// 2 x workers) -- queue backlog plus work in workers' hands.  Classified
  /// results waiting for the consumer live in the reorder buffer, which a
  /// consumer bounds by polling at least as often as it submits (the
  /// single-threaded submit/poll loop does exactly that); deliberately NOT
  /// part of this credit, or a producer thread that is also the consumer
  /// would deadlock itself at capacity.
  std::size_t max_in_flight = 0;
  /// When set, every submitted window must carry this acquisition stamp
  /// (TraceMeta::samples_per_cycle / adc_bits, written by the capture
  /// campaign) and the matching window length; any submit/enqueue overload
  /// throws std::invalid_argument otherwise, before a sequence number is
  /// reserved.  Guards a fleet against mixing corpora captured at different
  /// front-end configurations behind one model -- templates fitted on one
  /// grid silently misclassify windows from another.
  std::optional<sim::AcquisitionConfig> expected_acquisition;
};

/// One in-order result: `sequence` is the submit() ticket it answers.
struct StreamResult {
  std::uint64_t sequence = 0;
  core::Disassembly value;
  /// Stamp of the classification stage that produced this result (the stamp
  /// passed to swap_classifier/swap_model; 0 for the construction-time stage
  /// and unstamped swaps).  Pinned together with the stage function, so a
  /// result's stamp always identifies the exact model that classified it --
  /// never a concurrently published successor.
  std::uint64_t model_stamp = 0;
  /// Max-marginal sequence confidence when sequence decoding is enabled
  /// (SmoothedWindow::confidence); +inf otherwise, and for pass-through
  /// windows that carried no posterior.
  double sequence_confidence = std::numeric_limits<double>::infinity();
  /// True when the sequence decoder rewrote this window's class.
  bool smoothed = false;
};

class StreamingDisassembler {
 public:
  /// Classification stage, pluggable for tests (adversarial delays) and for
  /// alternative backends; the model overload wraps model.classify.
  using ClassifyFn = std::function<core::Disassembly(const sim::Trace&)>;
  /// Batched stage: classifies N windows in one call, returning exactly N
  /// results in input order (core::HierarchicalDisassembler::classify_batch
  /// amortizes workspace setup and per-trace normalization this way).
  using BatchClassifyFn =
      std::function<std::vector<core::Disassembly>(const sim::TraceSet&)>;

  /// Classification stage + its identity stamp, swapped and pinned as one
  /// unit (see swap_classifier).  `fn` is required; `batch`, when absent,
  /// falls back to looping `fn` per window.  Public so multi-tenant callers
  /// (FleetFrontend) can pin per-batch stages for many models on one engine.
  struct Stage {
    ClassifyFn fn;
    BatchClassifyFn batch;
    std::uint64_t stamp = 0;
  };
  /// Stages are immutable once published and shared between the publisher,
  /// the engine, and every in-flight job.
  using StageRef = std::shared_ptr<const Stage>;

  /// Builds a model-backed stage (classify + classify_batch closures, or
  /// classify_scored + classify_batch_scored when `scored`, so every result
  /// carries the per-class log-posterior a SequenceDecoder needs).  The
  /// shared_ptr keeps the model alive as long as any job can still run it.
  static StageRef make_stage(
      std::shared_ptr<const core::HierarchicalDisassembler> model,
      std::uint64_t stamp = 0, bool scored = false);

  /// Multimodal stage backed by a core::FusedDisassembler: each submitted
  /// trace is treated as a paired power+EM window (Trace::em_samples); a
  /// window without an EM half degrades to the power channel per the fusion
  /// contract.  The engine, FleetFrontend shards, and swap paths are
  /// modality-agnostic.
  static StageRef make_stage(std::shared_ptr<const core::FusedDisassembler> model,
                             std::uint64_t stamp = 0, bool scored = false);

  /// The model must outlive the engine and is shared read-only by all
  /// workers.  An already-stopped `stop` token starts the engine stopped.
  StreamingDisassembler(const core::HierarchicalDisassembler& model,
                        StreamingConfig config = {}, std::stop_token stop = {});
  StreamingDisassembler(ClassifyFn classify, StreamingConfig config = {},
                        std::stop_token stop = {});
  /// Stage-backed engine (make_stage result).  Throws
  /// std::invalid_argument on a null stage or one without a scalar entry.
  StreamingDisassembler(StageRef stage, StreamingConfig config = {},
                        std::stop_token stop = {});

  /// Stops accepting, lets workers finish the accepted backlog, joins.
  /// Undelivered results are discarded -- call drain() first when every
  /// submitted trace must come back.
  ~StreamingDisassembler();

  StreamingDisassembler(const StreamingDisassembler&) = delete;
  StreamingDisassembler& operator=(const StreamingDisassembler&) = delete;

  /// Hands one trace window to the pool.  Blocks while the engine is at
  /// capacity (backpressure).  Returns the trace's sequence number, or
  /// std::nullopt once the engine is stopped -- the trace was NOT accepted.
  std::optional<std::uint64_t> submit(sim::Trace trace);

  /// Hands a coalesced batch to the pool as ONE job: a single worker runs
  /// the whole batch through the stage's batched entry point (one
  /// feature-extraction + classify pass amortized over N windows), and the
  /// windows occupy sequences [ret, ret + n) in the ordinary in-order
  /// delivery stream -- poll()/drain() interleave batched and single
  /// submissions transparently.  `stage`, when non-null, overrides the
  /// engine's current stage for this batch only; this is how a multi-tenant
  /// frontend serves many models on one shared worker pool.  Blocks on the
  /// in-flight credit like submit(); a batch larger than the whole credit is
  /// admitted only once the engine is empty (it can never fit "partially").
  /// Throws std::invalid_argument on an empty batch.
  std::optional<std::uint64_t> submit_batch(sim::TraceSet traces,
                                            StageRef stage = nullptr);

  /// Non-blocking admission variant: refuses (nullopt) instead of waiting
  /// when the batch exceeds the available in-flight credit or the engine is
  /// stopped.  Note: with queue_capacity < max_in_flight the subsequent
  /// queue push can still block briefly; configure queue_capacity >=
  /// max_in_flight (the FleetFrontend shard configuration) for a hard
  /// non-blocking guarantee -- batches then always fit the queue, because
  /// queued jobs never hold more windows than the in-flight credit admitted.
  std::optional<std::uint64_t> try_submit_batch(sim::TraceSet traces,
                                                StageRef stage = nullptr);

  /// Turns on lattice smoothing: in-order results flow through a bounded-lag
  /// SequenceDecoder before poll()/drain() emit them, so each verdict is
  /// conditioned on its neighbours under the transition prior.  Results gain
  /// sequence_confidence / smoothed; windows without a posterior (a plain
  /// make_stage stage) pass through unsmoothed.  Adds up to `config.lag`
  /// windows of delivery latency by construction.  Must be called before the
  /// first submit (throws std::logic_error afterwards); the decoder is
  /// consumer-side state, exempt from swap_classifier.
  void enable_sequence_decoding(std::vector<std::size_t> classes,
                                std::shared_ptr<const core::TransitionPrior> prior,
                                SequenceDecoderConfig config = {});

  /// True when enable_sequence_decoding has installed a decoder.
  bool sequence_decoding() const;

  /// Next in-order result if it is ready; non-blocking.  Results complete
  /// out of order internally but are only ever emitted in submission order.
  /// With sequence decoding enabled, a result is emitted once the decoder
  /// commits it (at most `lag` windows after its successors arrive).
  std::optional<StreamResult> poll();

  /// Stops accepting new traces, waits for every *accepted* trace to be
  /// classified, and returns the not-yet-polled tail in submission order.
  /// Safe after cancellation: accepted work is never lost or duplicated.
  std::vector<StreamResult> drain();

  /// Cancellation: stop accepting new submissions and unblock any producer
  /// stuck in submit().  Traces already accepted still complete (drain()
  /// collects them).  Idempotent; also triggered by the stop_token.
  void request_stop();

  bool stopped() const;

  /// Atomically replaces the classification stage while the engine runs --
  /// how a monitor publishes a recalibrated template set without dropping a
  /// single window.  Workers pick up the new stage at their next job;
  /// classifications already in progress finish with the stage they started
  /// with, so every result comes from exactly one coherent model.  Safe from
  /// any thread; counted in RuntimeStats::model_swaps.
  ///
  /// `stamp` identifies the published stage (e.g. the registry artifact
  /// checksum) and is reported back on every result it classifies
  /// (StreamResult::model_stamp).  Function and stamp live in ONE shared
  /// stage record that workers pin as a unit -- reading them separately
  /// raced: a registry checksum snapshot taken after the stage pointer could
  /// describe a concurrently published successor model.
  void swap_classifier(ClassifyFn classify, std::uint64_t stamp = 0);
  /// Model overload: the new model must outlive the engine (or the next
  /// swap), like the constructor's.
  void swap_model(const core::HierarchicalDisassembler& model,
                  std::uint64_t stamp = 0);
  /// Shared-ownership overload: publishes classify AND classify_batch
  /// closures that co-own the model, so batched submissions keep their fast
  /// path across hot-swaps and the model lives exactly as long as some job
  /// can still pin its stage.  The RecalibrationScheduler publishes through
  /// this.
  void swap_model(std::shared_ptr<const core::HierarchicalDisassembler> model,
                  std::uint64_t stamp = 0);

  /// Drift-loop telemetry, recorded by the RecalibrationScheduler (or any
  /// external drift controller).  Safe from any thread.
  void record_drift_event();
  void record_recalibration(std::size_t traces_spent);

  /// Consistent snapshot of counters and latency histograms.
  RuntimeStats stats() const;

  std::size_t workers() const { return threads_.size(); }
  /// Accepted-but-not-yet-classified windows right now (in-flight credit in
  /// use).  A single-producer caller (FleetFrontend owns its shard engines
  /// exclusively) can treat `max_in_flight() - in_flight()` as guaranteed
  /// admission room.
  std::size_t in_flight() const;
  std::size_t max_in_flight() const { return config_.max_in_flight; }

 private:
  using Clock = std::chrono::steady_clock;
  /// One unit of worker work: a single window or a coalesced batch.  The
  /// batch spans sequences [sequence, sequence + traces.size()).
  struct Job {
    std::uint64_t sequence = 0;
    sim::TraceSet traces;
    StageRef stage;  ///< batch-pinned stage; null = engine stage at pickup
    Clock::time_point submitted_at;
  };
  struct Pending {
    core::Disassembly value;
    Clock::time_point submitted_at;
    std::uint64_t model_stamp = 0;
  };
  /// Delivery metadata travelling alongside a window inside the sequence
  /// decoder (the decoder only sees Disassembly).  Decoder emission order is
  /// push order, so a FIFO stays aligned with the lattice.
  struct DecodeMeta {
    std::uint64_t sequence = 0;
    std::uint64_t model_stamp = 0;
    Clock::time_point submitted_at;
  };

  void worker_loop();
  /// Shared admission path of submit/submit_batch/try_submit_batch.
  std::optional<std::uint64_t> enqueue(sim::TraceSet traces, StageRef stage,
                                       bool blocking, bool batched);
  /// Pops ready in-order results into `out`; caller holds mutex_.  With a
  /// decoder installed, feeds them through it and pops what it has decided.
  void collect_ready_locked(std::vector<StreamResult>& out);
  /// Moves every ready in-order result into the decoder; caller holds mutex_.
  void feed_decoder_locked();
  /// Converts the decoder's next emission + the aligned DecodeMeta into a
  /// StreamResult, recording latency and smoothing counters.
  StreamResult finish_decoded_locked(SmoothedWindow&& w);

  /// Shared with workers job-by-job: each pickup copies the pointer under
  /// mutex_, so a swap never frees a stage mid-classification and the
  /// (function, stamp) pair stays coherent.
  StageRef classify_;
  StreamingConfig config_;
  BoundedQueue<Job> queue_;

  mutable std::mutex mutex_;
  std::condition_variable space_cv_;    ///< producers waiting for credit
  std::condition_variable results_cv_;  ///< drain() waiting for completions
  std::map<std::uint64_t, Pending> reorder_;
  std::uint64_t next_submit_ = 0;
  std::uint64_t next_emit_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t model_swaps_ = 0;
  std::uint64_t drift_events_ = 0;
  std::uint64_t recalibrations_ = 0;
  std::uint64_t recal_traces_spent_ = 0;
  std::uint64_t rejected_ = 0;  ///< results with Verdict::kRejected
  std::uint64_t degraded_ = 0;  ///< results with Verdict::kDegraded
  std::uint64_t batches_submitted_ = 0;  ///< submit_batch calls accepted
  std::uint64_t batch_windows_ = 0;      ///< windows they carried
  /// Consumer-side sequence decoder (null = no smoothing).  Guarded by
  /// mutex_; only the single consumer (poll/drain) touches it.
  std::unique_ptr<SequenceDecoder> decoder_;
  std::deque<DecodeMeta> decode_meta_;
  std::uint64_t windows_decoded_ = 0;   ///< emissions that went through it
  std::uint64_t windows_smoothed_ = 0;  ///< of those, class rewritten
  LatencyHistogram windows_per_batch_;   ///< realized lanes per batched pass
  std::uint64_t batch_classify_nanos_ = 0;   ///< wall time in batched passes
  std::uint64_t scalar_classify_nanos_ = 0;  ///< wall time in scalar passes
  std::uint64_t batch_classified_windows_ = 0;
  std::uint64_t scalar_classified_windows_ = 0;
  std::uint64_t faulted_ = 0;   ///< submitted windows with fault_severity > 0
  double fault_severity_sum_ = 0.0;
  double max_fault_severity_ = 0.0;
  std::size_t in_flight_high_water_ = 0;
  bool accepting_ = true;
  LatencyHistogram queue_wait_;
  LatencyHistogram classify_hist_;
  LatencyHistogram end_to_end_;

  std::stop_callback<std::function<void()>> stop_callback_;
  std::vector<std::jthread> threads_;  ///< last member: joins before teardown
};

}  // namespace sidis::runtime
