#include "runtime/job_runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fusion.hpp"
#include "runtime/parallel_for.hpp"

namespace sidis::runtime {

namespace {

using Clock = Job::Clock;

std::uint64_t elapsed_nanos(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

StageRef make_stage(std::shared_ptr<const core::HierarchicalDisassembler> model,
                    std::uint64_t stamp, bool scored) {
  if (model == nullptr) throw std::invalid_argument("make_stage: null model");
  return std::make_shared<const Stage>(Stage{
      [model, scored](std::span<const sim::Trace> ts) {
        return model->classify_monitored(ts, scored);
      },
      stamp, model});
}

StageRef make_stage(std::shared_ptr<const core::FusedDisassembler> model,
                    std::uint64_t stamp, bool scored) {
  if (model == nullptr) throw std::invalid_argument("make_stage: null model");
  return std::make_shared<const Stage>(Stage{
      [model, scored](std::span<const sim::Trace> ts) {
        return scored ? model->classify_batch_scored(ts) : model->classify_batch(ts);
      },
      stamp, nullptr});
}

JobRunner::JobRunner(std::mutex& mutex, std::size_t workers) : mutex_(mutex) {
  const std::size_t n = workers == 0 ? default_workers() : workers;
  stats_.workers = n;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads_.emplace_back([this] { work(); });
}

JobRunner::~JobRunner() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  // threads_ is the last member, so the workers join before anything else
  // they touch is torn down.
}

void JobRunner::dispatch(Job job) {
  const std::size_t n = job.traces.size();
  job.dispatched_at = Clock::now();
  slots_.push_back(std::move(job));
  ++unstarted_;
  unclassified_ += n;
  stats_.traces_submitted += n;
  ++stats_.batches_submitted;
  stats_.queue_depth_high_water = std::max(stats_.queue_depth_high_water, unstarted_);
  stats_.in_flight_high_water = std::max(stats_.in_flight_high_water, unclassified_);
  wake_.notify_one();
}

void JobRunner::work() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || unstarted_ != 0; });
    if (unstarted_ == 0) return;  // stopping, and the backlog is dry
    // Slots are only freed once done, and a deque keeps references to its
    // other elements valid across push_back/pop_front, so the job stays put
    // while the lock is released.
    Job& job = slots_[slots_.size() - unstarted_--];
    const Clock::time_point picked_up = Clock::now();
    lock.unlock();

    // The only place a stage runs: one call per job.  A serving layer must
    // not lose a worker (its shard would wait forever), so on any throw
    // every window of the job gets a default-constructed placeholder and
    // counts as failed.
    const std::size_t n = job.traces.size();
    bool failed = false;
    try {
      job.results = job.stage->classify(job.traces);
      if (job.results.size() != n) throw std::runtime_error("stage result count mismatch");
    } catch (...) {
      job.results.assign(n, core::Disassembly{});
      failed = true;
    }
    // Features no monitor reads are freed here, by the thread that
    // allocated them: freed on the polling thread instead, they cost it
    // enough to starve the workers and halve batch coalescing (bench_fleet).
    for (std::size_t i = 0; i < n; ++i) {
      if (!job.routes[i].monitored) job.results[i].monitor_features = linalg::Vector();
    }
    const Clock::time_point finished = Clock::now();

    lock.lock();
    // Batch cost is amortized: each window is charged 1/n of the pass, so
    // the classify histogram reports effective per-window service time and
    // single vs batched passes share one record.  The batch-vs-scalar split
    // (by job size) and the realized lanes per batched pass are the
    // amortization telemetry.
    const std::uint64_t pass_nanos = elapsed_nanos(picked_up, finished);
    const std::uint64_t waited = elapsed_nanos(job.dispatched_at, picked_up);
    if (n > 1) {
      stats_.windows_per_batch.record(n);
      stats_.batch_classify_nanos += pass_nanos;
      stats_.batch_classified_windows += n;
    } else {
      stats_.scalar_classify_nanos += pass_nanos;
      stats_.scalar_classified_windows += n;
    }
    for (std::size_t i = 0; i < n; ++i) {
      stats_.queue_wait.record(waited);
      stats_.classify.record(pass_nanos / n);
      if (failed) {
        ++stats_.traces_failed;
      } else if (job.results[i].verdict == core::Verdict::kRejected) {
        ++stats_.traces_rejected;
      } else if (job.results[i].verdict == core::Verdict::kDegraded) {
        ++stats_.traces_degraded;
      }
      const double severity = job.traces[i].meta.fault_severity;
      if (severity > 0.0) {
        ++stats_.traces_faulted;
        stats_.fault_severity_sum += severity;
        stats_.max_fault_severity = std::max(stats_.max_fault_severity, severity);
      }
    }
    stats_.traces_completed += n;
    unclassified_ -= n;
    job.done = true;
    progress_.notify_all();
  }
}

void DeliveryQueue::push(Ready result, RuntimeStats& stats) {
  if (decoder_ == nullptr) {
    append(std::move(result), stats);
    return;
  }
  decoder_->push(std::move(result.result.value));
  held_.push_back(std::move(result));
  while (std::optional<SmoothedWindow> w = decoder_->poll()) emit(std::move(*w), stats);
}

void DeliveryQueue::flush(RuntimeStats& stats) {
  if (decoder_ == nullptr) return;
  for (SmoothedWindow& w : decoder_->flush()) emit(std::move(w), stats);
}

void DeliveryQueue::emit(SmoothedWindow&& window, RuntimeStats& stats) {
  Ready decided = std::move(held_.front());
  held_.pop_front();
  decided.result.value = std::move(window.value);
  decided.result.sequence_confidence = window.confidence;
  decided.result.smoothed = window.smoothed;
  ++stats.windows_decoded;
  if (window.smoothed) ++stats.windows_smoothed;
  append(std::move(decided), stats);
}

void DeliveryQueue::append(Ready result, RuntimeStats& stats) {
  stats.end_to_end.record(elapsed_nanos(result.admitted_at, Clock::now()));
  ready.push_back(std::move(result));
}

}  // namespace sidis::runtime
