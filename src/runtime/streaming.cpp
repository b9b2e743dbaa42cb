#include "runtime/streaming.hpp"

#include <stdexcept>

#include "core/fusion.hpp"
#include "runtime/thread_pool.hpp"

namespace sidis::runtime {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_nanos(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// One stage over either model type: both expose the same four classify
/// entry points.  The closures co-own the model, so a stage outlives every
/// job pinned to it.
template <class Model>
StreamingDisassembler::StageRef model_stage(std::shared_ptr<const Model> model,
                                            std::uint64_t stamp, bool scored) {
  if (model == nullptr) {
    throw std::invalid_argument("StreamingDisassembler::make_stage: null model");
  }
  using Stage = StreamingDisassembler::Stage;
  return std::make_shared<const Stage>(Stage{
      [model, scored](const sim::Trace& t) {
        return scored ? model->classify_scored(t) : model->classify(t);
      },
      [model, scored](const sim::TraceSet& ts) {
        return scored ? model->classify_batch_scored(ts) : model->classify_batch(ts);
      },
      stamp});
}

/// Non-owning handle for the reference-taking entry points, whose callers
/// keep the model alive for the engine's lifetime.
std::shared_ptr<const core::HierarchicalDisassembler> unowned(
    const core::HierarchicalDisassembler& model) {
  return {std::shared_ptr<const void>(), &model};
}

}  // namespace

StreamingDisassembler::StageRef StreamingDisassembler::make_stage(
    std::shared_ptr<const core::HierarchicalDisassembler> model, std::uint64_t stamp,
    bool scored) {
  return model_stage(std::move(model), stamp, scored);
}

StreamingDisassembler::StageRef StreamingDisassembler::make_stage(
    std::shared_ptr<const core::FusedDisassembler> model, std::uint64_t stamp,
    bool scored) {
  return model_stage(std::move(model), stamp, scored);
}

StreamingDisassembler::StreamingDisassembler(
    const core::HierarchicalDisassembler& model, StreamingConfig config,
    std::stop_token stop)
    : StreamingDisassembler(make_stage(unowned(model)), config, std::move(stop)) {}

StreamingDisassembler::StreamingDisassembler(ClassifyFn classify,
                                             StreamingConfig config,
                                             std::stop_token stop)
    : classify_(std::make_shared<const Stage>(Stage{std::move(classify), nullptr, 0})),
      config_(config),
      queue_(config.queue_capacity),
      stop_callback_(std::move(stop), std::function<void()>([this] { request_stop(); })) {
  if (config_.workers == 0) config_.workers = default_workers();
  if (config_.max_in_flight == 0) {
    config_.max_in_flight = config_.queue_capacity + 2 * config_.workers;
  }
  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

StreamingDisassembler::StreamingDisassembler(StageRef stage, StreamingConfig config,
                                             std::stop_token stop)
    // Validate before delegating: a throw after the worker threads exist
    // would tear down jthreads blocked on a never-closed queue.
    : StreamingDisassembler(
          [&stage]() -> ClassifyFn {
            if (stage == nullptr || !stage->fn) {
              throw std::invalid_argument(
                  "StreamingDisassembler: null or scalar-less stage");
            }
            return stage->fn;
          }(),
          config, std::move(stop)) {
  // Install the full stage (batch entry + stamp); nothing submitted yet, so
  // no job can have pinned the delegate-installed plain stage.
  classify_ = std::move(stage);
}

StreamingDisassembler::~StreamingDisassembler() {
  request_stop();
  queue_.close();  // backlog stays poppable; workers exit once it is dry
  for (std::jthread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void StreamingDisassembler::worker_loop() {
  while (std::optional<Job> job = queue_.pop()) {
    const Clock::time_point picked_up = Clock::now();
    // Pin the classification stage for this job: the job's own pinned stage
    // when it carries one (a multi-tenant batch), else the engine's current
    // stage.  A concurrent swap_classifier() publishes a new stage without
    // pulling the pinned one out from under us, and the stamp travels inside
    // the same pinned record, so the result is always attributed to the
    // stage that actually produced it (reading a registry checksum in a
    // second critical section could name a stage published in between).
    StageRef stage = job->stage;
    if (stage == nullptr) {
      std::lock_guard lock(mutex_);
      stage = classify_;
    }
    const std::size_t n = job->traces.size();
    // A serving layer must not lose a worker (drain() would hang); on any
    // throw, emit deterministic default results and count the failures.
    std::vector<core::Disassembly> results;
    std::vector<unsigned char> window_failed(n, 0);
    std::uint64_t failures = 0;
    const bool used_batch = n > 1 && stage->batch != nullptr;
    if (used_batch) {
      try {
        results = (stage->batch)(job->traces);
        if (results.size() != n) throw std::runtime_error("batch size mismatch");
      } catch (...) {
        results.assign(n, core::Disassembly{});
        window_failed.assign(n, 1);
        failures = n;
      }
    } else {
      results.reserve(n);
      for (const sim::Trace& t : job->traces) {
        try {
          results.push_back((stage->fn)(t));
        } catch (...) {
          results.push_back(core::Disassembly{});
          window_failed[results.size() - 1] = 1;
          ++failures;
        }
      }
    }
    const Clock::time_point done = Clock::now();
    // Batch cost is amortized: each window is charged 1/n of the pass, so
    // the classify histogram reports effective per-window service time and
    // single vs batched paths share one perf record.
    const std::uint64_t pass_nanos = elapsed_nanos(picked_up, done);
    const std::uint64_t per_window = pass_nanos / static_cast<std::uint64_t>(n);
    const std::uint64_t waited = elapsed_nanos(job->submitted_at, picked_up);
    {
      std::lock_guard lock(mutex_);
      // Amortization telemetry: realized lane count of this pass and the
      // batch-vs-scalar wall-time split.
      if (used_batch) {
        windows_per_batch_.record(n);
        batch_classify_nanos_ += pass_nanos;
        batch_classified_windows_ += n;
      } else {
        scalar_classify_nanos_ += pass_nanos;
        scalar_classified_windows_ += n;
      }
      for (std::size_t i = 0; i < n; ++i) {
        queue_wait_.record(waited);
        classify_hist_.record(per_window);
        if (window_failed[i] == 0) {
          if (results[i].verdict == core::Verdict::kRejected) ++rejected_;
          if (results[i].verdict == core::Verdict::kDegraded) ++degraded_;
        }
        const double fault_severity = job->traces[i].meta.fault_severity;
        if (fault_severity > 0.0) {
          ++faulted_;
          fault_severity_sum_ += fault_severity;
          max_fault_severity_ = std::max(max_fault_severity_, fault_severity);
        }
        reorder_.emplace(
            job->sequence + i,
            Pending{std::move(results[i]), job->submitted_at, stage->stamp});
      }
      completed_ += n;
      failed_ += failures;
    }
    results_cv_.notify_all();
    space_cv_.notify_all();  // classification frees in-flight credit
  }
}

std::optional<std::uint64_t> StreamingDisassembler::enqueue(sim::TraceSet traces,
                                                            StageRef stage,
                                                            bool blocking,
                                                            bool batched) {
  if (traces.empty()) {
    throw std::invalid_argument("StreamingDisassembler: empty batch");
  }
  if (config_.expected_acquisition) {
    const sim::AcquisitionConfig& acq = *config_.expected_acquisition;
    const std::size_t window = acq.window_samples();
    for (const sim::Trace& t : traces) {
      if (t.meta.samples_per_cycle != acq.samples_per_cycle ||
          t.meta.adc_bits != acq.adc_bits || t.samples.size() != window) {
        throw std::invalid_argument(
            "StreamingDisassembler: trace acquisition stamp does not match "
            "expected_acquisition (rate/resolution/window)");
      }
    }
  }
  const std::uint64_t n = traces.size();
  Job job;
  {
    std::unique_lock lock(mutex_);
    // A batch must fit the in-flight credit whole; one wider than the whole
    // credit is admitted only against an empty engine (it could never fit).
    const auto admissible = [&] {
      const std::uint64_t used = next_submit_ - completed_;
      return used + n <= config_.max_in_flight || used == 0;
    };
    if (blocking) {
      space_cv_.wait(lock, [&] { return !accepting_ || admissible(); });
      if (!accepting_) return std::nullopt;
    } else if (!accepting_ || !admissible()) {
      return std::nullopt;
    }
    job.sequence = next_submit_;
    next_submit_ += n;
    if (batched) {
      ++batches_submitted_;
      batch_windows_ += n;
    }
    const std::size_t in_flight = static_cast<std::size_t>(next_submit_ - completed_);
    in_flight_high_water_ = std::max(in_flight_high_water_, in_flight);
  }
  job.traces = std::move(traces);
  job.stage = std::move(stage);
  job.submitted_at = Clock::now();
  const std::uint64_t seq = job.sequence;
  // The queue is only closed after drain()/destruction has already observed
  // accepting_ == false and waited the backlog out, so this push succeeds for
  // every reserved sequence number (no gaps in the reorder stream).
  queue_.push(std::move(job));
  return seq;
}

std::optional<std::uint64_t> StreamingDisassembler::submit(sim::Trace trace) {
  sim::TraceSet one;
  one.push_back(std::move(trace));
  return enqueue(std::move(one), nullptr, /*blocking=*/true, /*batched=*/false);
}

std::optional<std::uint64_t> StreamingDisassembler::submit_batch(sim::TraceSet traces,
                                                                 StageRef stage) {
  return enqueue(std::move(traces), std::move(stage), /*blocking=*/true,
                 /*batched=*/true);
}

std::optional<std::uint64_t> StreamingDisassembler::try_submit_batch(
    sim::TraceSet traces, StageRef stage) {
  return enqueue(std::move(traces), std::move(stage), /*blocking=*/false,
                 /*batched=*/true);
}

void StreamingDisassembler::feed_decoder_locked() {
  for (auto it = reorder_.find(next_emit_); it != reorder_.end();
       it = reorder_.find(next_emit_)) {
    decode_meta_.push_back(
        DecodeMeta{next_emit_, it->second.model_stamp, it->second.submitted_at});
    decoder_->push(std::move(it->second.value));
    reorder_.erase(it);
    ++next_emit_;
  }
}

StreamResult StreamingDisassembler::finish_decoded_locked(SmoothedWindow&& w) {
  DecodeMeta meta = decode_meta_.front();
  decode_meta_.pop_front();
  end_to_end_.record(elapsed_nanos(meta.submitted_at, Clock::now()));
  ++windows_decoded_;
  if (w.smoothed) ++windows_smoothed_;
  StreamResult r;
  r.sequence = meta.sequence;
  r.value = std::move(w.value);
  r.model_stamp = meta.model_stamp;
  r.sequence_confidence = w.confidence;
  r.smoothed = w.smoothed;
  return r;
}

void StreamingDisassembler::collect_ready_locked(std::vector<StreamResult>& out) {
  if (decoder_ != nullptr) {
    feed_decoder_locked();
    while (std::optional<SmoothedWindow> w = decoder_->poll()) {
      out.push_back(finish_decoded_locked(std::move(*w)));
    }
    return;
  }
  const Clock::time_point now = Clock::now();
  for (auto it = reorder_.find(next_emit_); it != reorder_.end();
       it = reorder_.find(next_emit_)) {
    end_to_end_.record(elapsed_nanos(it->second.submitted_at, now));
    out.push_back(
        StreamResult{next_emit_, std::move(it->second.value), it->second.model_stamp});
    reorder_.erase(it);
    ++next_emit_;
  }
}

std::optional<StreamResult> StreamingDisassembler::poll() {
  std::optional<StreamResult> out;
  {
    std::lock_guard lock(mutex_);
    if (decoder_ != nullptr) {
      feed_decoder_locked();
      std::optional<SmoothedWindow> w = decoder_->poll();
      if (!w.has_value()) return std::nullopt;
      return finish_decoded_locked(std::move(*w));
    }
    const auto it = reorder_.find(next_emit_);
    if (it == reorder_.end()) return std::nullopt;
    end_to_end_.record(elapsed_nanos(it->second.submitted_at, Clock::now()));
    out.emplace(
        StreamResult{next_emit_, std::move(it->second.value), it->second.model_stamp});
    reorder_.erase(it);
    ++next_emit_;
  }
  return out;
}

std::vector<StreamResult> StreamingDisassembler::drain() {
  request_stop();
  std::vector<StreamResult> out;
  {
    std::unique_lock lock(mutex_);
    while (next_emit_ < next_submit_) {
      collect_ready_locked(out);
      if (next_emit_ >= next_submit_) break;
      results_cv_.wait(lock, [&] { return reorder_.count(next_emit_) != 0; });
    }
    if (decoder_ != nullptr) {
      // Everything accepted has been fed; the stream is over, so finish the
      // lattice with the decoder's offline tail pass.
      feed_decoder_locked();
      for (SmoothedWindow& w : decoder_->flush()) {
        out.push_back(finish_decoded_locked(std::move(w)));
      }
    }
  }
  queue_.close();  // backlog is empty by now; lets the workers exit
  return out;
}

void StreamingDisassembler::enable_sequence_decoding(
    std::vector<std::size_t> classes,
    std::shared_ptr<const core::TransitionPrior> prior,
    SequenceDecoderConfig config) {
  std::lock_guard lock(mutex_);
  if (next_submit_ != 0) {
    throw std::logic_error(
        "enable_sequence_decoding: engine already has accepted windows");
  }
  decoder_ = std::make_unique<SequenceDecoder>(std::move(classes),
                                               std::move(prior), config);
}

bool StreamingDisassembler::sequence_decoding() const {
  std::lock_guard lock(mutex_);
  return decoder_ != nullptr;
}

void StreamingDisassembler::swap_classifier(ClassifyFn classify, std::uint64_t stamp) {
  auto stage = std::make_shared<const Stage>(Stage{std::move(classify), nullptr, stamp});
  {
    std::lock_guard lock(mutex_);
    classify_ = std::move(stage);
    ++model_swaps_;
  }
}

void StreamingDisassembler::swap_model(const core::HierarchicalDisassembler& model,
                                       std::uint64_t stamp) {
  swap_model(unowned(model), stamp);
}

void StreamingDisassembler::swap_model(
    std::shared_ptr<const core::HierarchicalDisassembler> model,
    std::uint64_t stamp) {
  auto stage = make_stage(std::move(model), stamp);
  {
    std::lock_guard lock(mutex_);
    classify_ = std::move(stage);
    ++model_swaps_;
  }
}

void StreamingDisassembler::record_drift_event() {
  std::lock_guard lock(mutex_);
  ++drift_events_;
}

void StreamingDisassembler::record_recalibration(std::size_t traces_spent) {
  std::lock_guard lock(mutex_);
  ++recalibrations_;
  recal_traces_spent_ += traces_spent;
}

void StreamingDisassembler::request_stop() {
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
  }
  space_cv_.notify_all();
}

bool StreamingDisassembler::stopped() const {
  std::lock_guard lock(mutex_);
  return !accepting_;
}

std::size_t StreamingDisassembler::in_flight() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(next_submit_ - completed_);
}

RuntimeStats StreamingDisassembler::stats() const {
  RuntimeStats s;
  std::lock_guard lock(mutex_);
  s.traces_submitted = next_submit_;
  s.traces_completed = completed_;
  s.traces_emitted = next_emit_;
  s.traces_failed = failed_;
  s.model_swaps = model_swaps_;
  s.drift_events = drift_events_;
  s.recalibrations = recalibrations_;
  s.recal_traces_spent = recal_traces_spent_;
  s.traces_rejected = rejected_;
  s.traces_degraded = degraded_;
  s.batches_submitted = batches_submitted_;
  s.batch_windows = batch_windows_;
  s.windows_decoded = windows_decoded_;
  s.windows_smoothed = windows_smoothed_;
  s.windows_per_batch = windows_per_batch_;
  s.batch_classify_nanos = batch_classify_nanos_;
  s.scalar_classify_nanos = scalar_classify_nanos_;
  s.batch_classified_windows = batch_classified_windows_;
  s.scalar_classified_windows = scalar_classified_windows_;
  s.traces_faulted = faulted_;
  s.fault_severity_sum = fault_severity_sum_;
  s.max_fault_severity = max_fault_severity_;
  s.queue_depth_high_water = queue_.high_water();
  s.in_flight_high_water = in_flight_high_water_;
  s.workers = threads_.size();
  s.queue_wait = queue_wait_;
  s.classify = classify_hist_;
  s.end_to_end = end_to_end_;
  return s;
}

}  // namespace sidis::runtime
