// The serving core of every FleetFrontend shard: the classification stage a
// job is pinned to, the worker threads that run jobs, and the in-order
// hand-off of their results to a stream's consumer.
//
// Each shard owns one JobRunner.  A job is one dispatched unit of work -- a
// single window or a batch, possibly drawn from many streams -- with its
// stage pinned at dispatch and, per window, the route back to its stream.
// Jobs wait in ONE FIFO of slots in dispatch order: workers take the oldest
// unstarted slot, classify outside the lock and fill the slot in place; the
// shard pumps finished slots off the head, so results leave in dispatch
// order however the workers finish.  That FIFO is the only reorder stage.
//
//   dispatch(job) ──► [slot FIFO] ──► pump(deliver) ──► DeliveryQueue
//                      ▲                (finished          (lattice smoothing,
//   worker threads ────┘                 head slots)        then a ready FIFO)
//   fill slots in any order
//
// Locking: a JobRunner has no mutex of its own.  It is guarded by its
// shard's mutex, which the workers take to pick a job up and to complete it;
// every member except the constructor and destructor must be called with
// that mutex held.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/hierarchical.hpp"
#include "runtime/decoder.hpp"
#include "runtime/stats.hpp"
#include "sim/trace.hpp"

namespace sidis::core {
class FusedDisassembler;
}

namespace sidis::runtime {

/// A classification stage and its identity stamp, published and pinned as
/// one unit.  `classify` takes one job's windows and returns exactly one
/// result per window, in input order (core::HierarchicalDisassembler's batch
/// forms share one CWT gather across the windows this way); a job of one
/// window is a span of one.
struct Stage {
  std::function<std::vector<core::Disassembly>(std::span<const sim::Trace>)> classify;
  std::uint64_t stamp = 0;
  /// The model whose classify walk produces the results, which then carry
  /// its Disassembly::monitor_features; null for fused and custom stages.
  std::shared_ptr<const core::HierarchicalDisassembler> model = nullptr;
};
/// Stages are immutable once published and shared between the publisher,
/// the streams serving them and every job pinned to them.
using StageRef = std::shared_ptr<const Stage>;

/// Model-backed stage: a classify_monitored closure, scored when `scored` so
/// every result carries the per-class log-posterior a SequenceDecoder
/// needs, and every result carries its monitor-space features for a drift
/// monitor of the same model (a fleet folds them into a monitored stream's
/// monitor and drops them before delivery).
/// The stage records the model, and the closure co-owns it, so it lives as
/// long as any job can run it.
StageRef make_stage(std::shared_ptr<const core::HierarchicalDisassembler> model,
                    std::uint64_t stamp = 0, bool scored = false);
/// Multimodal stage backed by a core::FusedDisassembler: each window is a
/// paired power+EM window (Trace::em_samples); one without an EM half
/// degrades to the power channel per the fusion contract.  Its results carry
/// no monitor features, and Stage::model stays null.
StageRef make_stage(std::shared_ptr<const core::FusedDisassembler> model,
                    std::uint64_t stamp = 0, bool scored = false);

/// One in-order result of one stream.  stream_sequence is the window's
/// submit() ticket; gaps mark shed windows (delivery order is still strictly
/// ascending per stream).
struct FleetResult {
  std::uint64_t stream_sequence = 0;
  /// The recovery; its monitor_features are always empty (the worker drops
  /// those no monitor reads, the pump those it folded).
  core::Disassembly value;
  /// Stamp of the stage that classified this window (pinned with the stage
  /// function, so it always names the exact model that produced the result).
  std::uint64_t model_stamp = 0;
  /// Max-marginal sequence confidence for decode_sequence streams
  /// (SmoothedWindow::confidence); +inf otherwise, and for pass-through
  /// windows that carried no posterior.
  double sequence_confidence = std::numeric_limits<double>::infinity();
  /// True when the stream's sequence decoder rewrote this window's class.
  bool smoothed = false;
};

/// A result on its way to the consumer, with the time its window was
/// admitted (the start of its end-to-end latency).
struct Ready {
  FleetResult result;
  std::chrono::steady_clock::time_point admitted_at;
};

/// One dispatched unit of work and the slot its results wait in.
struct Job {
  using Clock = std::chrono::steady_clock;
  /// Where one window's result goes back to.
  struct Route {
    std::uint64_t stream = 0;    ///< fleet stream id
    std::uint64_t sequence = 0;  ///< FleetResult::stream_sequence
    Clock::time_point admitted_at;
    /// The stream has a drift monitor, so the pump reads this window's
    /// Disassembly::monitor_features; otherwise the worker drops them.
    bool monitored = false;
  };
  sim::TraceSet traces;
  std::vector<Route> routes;  ///< aligned with traces
  StageRef stage;
  /// Filled by the worker; kept with the traces until the slot is pumped,
  /// so delivery can still read each window (a stream's drift monitor does).
  std::vector<core::Disassembly> results;
  Clock::time_point dispatched_at;
  bool done = false;
};

class JobRunner {
 public:
  /// Starts `workers` threads (0 = hardware concurrency) guarded by the
  /// shard's `mutex`, which must outlive the runner.
  JobRunner(std::mutex& mutex, std::size_t workers);
  /// Lets the workers finish every dispatched job, then joins them.  Call
  /// without the mutex held.
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Appends `job` to the FIFO and wakes a worker.
  void dispatch(Job job);

  /// Hands every finished job at the head of the FIFO to
  /// `deliver(const Job&, window index, Ready)`, window by window in
  /// dispatch order, then frees its slot.  Stops at the first unfinished job.
  template <class Deliver>
  void pump(Deliver&& deliver) {
    while (!slots_.empty() && slots_.front().done) {
      Job& job = slots_.front();
      for (std::size_t i = 0; i < job.traces.size(); ++i) {
        const Job::Route& route = job.routes[i];
        deliver(std::as_const(job), i,
                Ready{FleetResult{route.sequence, std::move(job.results[i]),
                                  job.stage->stamp},
                      route.admitted_at});
      }
      stats_.traces_emitted += job.traces.size();
      slots_.pop_front();
    }
  }

  /// Blocks on `lock` (over the shard's mutex) until `done()` holds,
  /// re-checking it whenever a worker finishes a job or notify() is called.
  template <class Predicate>
  void wait(std::unique_lock<std::mutex>& lock, Predicate done) {
    progress_.wait(lock, std::move(done));
  }
  /// Wakes every wait()er, e.g. after a stream stops admitting.
  void notify() { progress_.notify_all(); }

  /// True when every dispatched job has been pumped.
  bool idle() const { return slots_.empty(); }
  /// Windows dispatched but not yet classified -- the shard's in-flight
  /// credit in use.
  std::size_t unclassified() const { return unclassified_; }
  std::size_t workers() const { return threads_.size(); }
  /// The shard's one telemetry record: the runner fills the dispatch,
  /// classify and emission counters; the shard adds its own (swaps,
  /// admission, decoding) straight into it.
  RuntimeStats& stats() { return stats_; }
  const RuntimeStats& stats() const { return stats_; }

 private:
  /// The one worker loop: pick up the oldest unstarted job, classify it
  /// outside the lock, record it, repeat until stopped and dry.
  void work();

  std::mutex& mutex_;
  std::condition_variable wake_;      ///< workers: a job awaits pickup, or stop
  std::condition_variable progress_;  ///< shard: a job finished
  std::deque<Job> slots_;             ///< dispatch order; unstarted at the tail
  std::size_t unstarted_ = 0;
  std::size_t unclassified_ = 0;
  bool stopping_ = false;
  RuntimeStats stats_;
  std::vector<std::jthread> threads_;  ///< last member: joins before teardown
};

/// The consumer side of one stream: in-order results pass through an
/// optional bounded-lag SequenceDecoder, then wait in a ready FIFO.  The
/// decoder only sees Disassembly; the Ready records of the windows inside it
/// wait in a FIFO aligned with its push order (emission order is push order).
class DeliveryQueue {
 public:
  /// Installs lattice smoothing for every later push().
  void set_decoder(std::unique_ptr<SequenceDecoder> decoder) {
    decoder_ = std::move(decoder);
  }
  bool decoding() const { return decoder_ != nullptr; }

  /// Appends one in-order result.  With a decoder it enters the lattice, and
  /// whatever the lattice has decided moves on to the ready FIFO.  Records
  /// end-to-end latency and decode counters into `stats`.
  void push(Ready result, RuntimeStats& stats);
  /// End of stream: finishes the lattice with the decoder's offline tail
  /// pass, so every pushed window is ready.
  void flush(RuntimeStats& stats);

  /// Results the consumer can take, oldest first.
  std::deque<Ready> ready;

 private:
  void emit(SmoothedWindow&& window, RuntimeStats& stats);
  void append(Ready result, RuntimeStats& stats);

  std::unique_ptr<SequenceDecoder> decoder_;
  std::deque<Ready> held_;  ///< windows inside the decoder, in push order
};

}  // namespace sidis::runtime
