// Parallel streaming disassembly engine -- the single-stream serving layer
// between `core::disassemble` and a live trace stream.
//
// The paper's real-time framing (Sec. 5.4) is a producer/consumer problem:
// per-instruction windows arrive at capture rate, classification costs a few
// hundred kernel correlations each, so the only way to keep up is to fan the
// windows out across cores.  The engine does exactly that while preserving
// the one property a disassembler cannot lose: *output order is submission
// order*, no matter how out-of-order the workers complete.
//
//   submit(trace) -> seq       blocking backpressure on ONE in-flight
//        |                     credit (max_in_flight)
//   JobRunner slot FIFO        workers classify jobs in any order; finished
//        |                     slots leave the head in submission order
//   DeliveryQueue              optional sequence decoding, then ready FIFO
//        |
//   poll() / drain()           consumer side; drain() waits everything out
//
// The job runner and delivery queue are the same ones every FleetFrontend
// shard runs on (runtime/job_runner.hpp); the engine adds the blocking
// admission, hot swaps, the acquisition-stamp contract and the stop token.
//
// Thread-safety contract: any number of producer threads may call submit()
// concurrently; poll()/drain() belong to ONE consumer thread; stats() and
// request_stop() are safe from anywhere.  The wrapped model is shared
// read-only across workers (see the contract note in core/hierarchical.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/sequence.hpp"
#include "runtime/decoder.hpp"
#include "runtime/job_runner.hpp"
#include "runtime/stats.hpp"
#include "sim/acq_config.hpp"
#include "sim/trace.hpp"

namespace sidis::runtime {

struct StreamingConfig {
  /// Worker threads (0 = hardware concurrency).
  std::size_t workers = 0;
  /// The one in-flight credit (0 = 64 + 2 x workers): accepted but not yet
  /// classified windows, whether waiting for a worker or in its hands.
  /// submit() blocks while it is used up.  Classified results waiting for
  /// the consumer are deliberately NOT part of it -- a consumer bounds them
  /// by polling at least as often as it submits (the single-threaded
  /// submit/poll loop does exactly that), and a producer thread that is
  /// also the consumer would otherwise deadlock itself at capacity.
  std::size_t max_in_flight = 0;
  /// When set, every submitted window must carry this acquisition stamp
  /// (TraceMeta::samples_per_cycle / adc_bits, written by the capture
  /// campaign) and the matching window length; submit/submit_batch throw
  /// std::invalid_argument otherwise, before a sequence number is reserved.
  /// Guards a fleet against mixing corpora captured at different front-end
  /// configurations behind one model -- templates fitted on one grid
  /// silently misclassify windows from another.
  std::optional<sim::AcquisitionConfig> expected_acquisition;
};

class StreamingDisassembler {
 public:
  /// The model must outlive the engine and is shared read-only by all
  /// workers.  An already-stopped `stop` token starts the engine stopped.
  StreamingDisassembler(const core::HierarchicalDisassembler& model,
                        StreamingConfig config = {}, std::stop_token stop = {});
  /// Scalar-only stage, pluggable for tests (adversarial delays) and for
  /// alternative backends.
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
  /// submissions transparently.  Blocks on the in-flight credit like
  /// submit(); a batch larger than the whole credit is admitted only once
  /// the engine is empty (it can never fit "partially").  Throws
  /// std::invalid_argument on an empty batch.
  std::optional<std::uint64_t> submit_batch(sim::TraceSet traces);

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
  /// single window.  Every window accepted after the swap is classified by
  /// the new stage; windows accepted before it finish with the stage they
  /// were admitted under, so every result comes from exactly one coherent
  /// model.  Safe from any thread; counted in RuntimeStats::model_swaps.
  ///
  /// `stamp` identifies the published stage (e.g. the registry artifact
  /// checksum) and is reported back on every result it classifies
  /// (StreamResult::model_stamp).  Function and stamp live in ONE shared
  /// stage record that each job pins as a unit -- reading them separately
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

  std::size_t workers() const { return runner_.workers(); }

 private:
  /// Shared admission path of submit/submit_batch.
  std::optional<std::uint64_t> enqueue(sim::TraceSet traces, bool batched);
  /// Moves finished jobs into the delivery queue; caller holds mutex_.
  void pump_locked();
  void publish(StageRef stage);

  StreamingConfig config_;
  mutable std::mutex mutex_;
  /// Stage pinned by each accepted job; a swap replaces the pointer, never
  /// the record a job already holds.
  StageRef stage_;
  DeliveryQueue out_;
  std::uint64_t next_submit_ = 0;
  bool accepting_ = true;
  JobRunner runner_;
  /// After runner_: a token stopped at construction finds the runner built,
  /// and the callback is deregistered before the runner joins.
  std::stop_callback<std::function<void()>> stop_callback_;
};

}  // namespace sidis::runtime
