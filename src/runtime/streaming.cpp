#include "runtime/streaming.hpp"

#include <stdexcept>

namespace sidis::runtime {

namespace {

/// Non-owning handle for the reference-taking entry points, whose callers
/// keep the model alive for the engine's lifetime.
std::shared_ptr<const core::HierarchicalDisassembler> unowned(
    const core::HierarchicalDisassembler& model) {
  return {std::shared_ptr<const void>(), &model};
}

StageRef checked(StageRef stage) {
  if (stage == nullptr || !stage->fn) {
    throw std::invalid_argument("StreamingDisassembler: null or scalar-less stage");
  }
  return stage;
}

}  // namespace

StreamingDisassembler::StreamingDisassembler(
    const core::HierarchicalDisassembler& model, StreamingConfig config,
    std::stop_token stop)
    : StreamingDisassembler(make_stage(unowned(model)), config, std::move(stop)) {}

StreamingDisassembler::StreamingDisassembler(ClassifyFn classify,
                                             StreamingConfig config,
                                             std::stop_token stop)
    : StreamingDisassembler(
          std::make_shared<const Stage>(Stage{std::move(classify), nullptr, 0}), config,
          std::move(stop)) {}

StreamingDisassembler::StreamingDisassembler(StageRef stage, StreamingConfig config,
                                             std::stop_token stop)
    : config_(config),
      stage_(checked(std::move(stage))),
      runner_(mutex_, config.workers),
      stop_callback_(std::move(stop), std::function<void()>([this] { request_stop(); })) {
  if (config_.max_in_flight == 0) config_.max_in_flight = 64 + 2 * runner_.workers();
}

StreamingDisassembler::~StreamingDisassembler() { request_stop(); }

std::optional<std::uint64_t> StreamingDisassembler::enqueue(sim::TraceSet traces,
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
  const std::size_t n = traces.size();
  std::unique_lock lock(mutex_);
  // A batch must fit the in-flight credit whole; one wider than the whole
  // credit is admitted only against an empty engine (it could never fit).
  runner_.wait(lock, [&] {
    const std::size_t used = runner_.unclassified();
    return !accepting_ || used + n <= config_.max_in_flight || used == 0;
  });
  if (!accepting_) return std::nullopt;
  Job job;
  job.traces = std::move(traces);
  job.stage = stage_;
  const std::uint64_t first = next_submit_;
  next_submit_ += n;
  const Job::Clock::time_point now = Job::Clock::now();
  job.routes.reserve(n);
  for (std::uint64_t seq = first; seq < next_submit_; ++seq) {
    job.routes.push_back(Job::Route{0, seq, now});
  }
  runner_.dispatch(std::move(job), batched);
  return first;
}

std::optional<std::uint64_t> StreamingDisassembler::submit(sim::Trace trace) {
  sim::TraceSet one;
  one.push_back(std::move(trace));
  return enqueue(std::move(one), /*batched=*/false);
}

std::optional<std::uint64_t> StreamingDisassembler::submit_batch(sim::TraceSet traces) {
  return enqueue(std::move(traces), /*batched=*/true);
}

void StreamingDisassembler::pump_locked() {
  runner_.pump([this](const Job&, std::size_t, Ready ready) {
    out_.push(std::move(ready), runner_.stats());
  });
}

std::optional<StreamResult> StreamingDisassembler::poll() {
  std::lock_guard lock(mutex_);
  pump_locked();
  if (out_.ready.empty()) return std::nullopt;
  StreamResult result = std::move(out_.ready.front().result);
  out_.ready.pop_front();
  return result;
}

std::vector<StreamResult> StreamingDisassembler::drain() {
  request_stop();
  std::unique_lock lock(mutex_);
  // Every accepted window is dispatched; pump until the FIFO is empty.
  runner_.wait(lock, [this] {
    pump_locked();
    return runner_.idle();
  });
  // The stream is over: finish the lattice with the decoder's offline tail
  // pass.
  out_.flush(runner_.stats());
  std::vector<StreamResult> tail;
  for (Ready& ready : out_.ready) tail.push_back(std::move(ready.result));
  out_.ready.clear();
  return tail;
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
  out_.set_decoder(
      std::make_unique<SequenceDecoder>(std::move(classes), std::move(prior), config));
}

bool StreamingDisassembler::sequence_decoding() const {
  std::lock_guard lock(mutex_);
  return out_.decoding();
}

void StreamingDisassembler::publish(StageRef stage) {
  std::lock_guard lock(mutex_);
  stage_ = std::move(stage);
  ++runner_.stats().model_swaps;
}

void StreamingDisassembler::swap_classifier(ClassifyFn classify, std::uint64_t stamp) {
  publish(std::make_shared<const Stage>(Stage{std::move(classify), nullptr, stamp}));
}

void StreamingDisassembler::swap_model(const core::HierarchicalDisassembler& model,
                                       std::uint64_t stamp) {
  swap_model(unowned(model), stamp);
}

void StreamingDisassembler::swap_model(
    std::shared_ptr<const core::HierarchicalDisassembler> model,
    std::uint64_t stamp) {
  publish(make_stage(std::move(model), stamp));
}

void StreamingDisassembler::record_drift_event() {
  std::lock_guard lock(mutex_);
  ++runner_.stats().drift_events;
}

void StreamingDisassembler::record_recalibration(std::size_t traces_spent) {
  std::lock_guard lock(mutex_);
  ++runner_.stats().recalibrations;
  runner_.stats().recal_traces_spent += traces_spent;
}

void StreamingDisassembler::request_stop() {
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
  }
  runner_.notify();  // producers blocked on credit re-check and bail out
}

bool StreamingDisassembler::stopped() const {
  std::lock_guard lock(mutex_);
  return !accepting_;
}

RuntimeStats StreamingDisassembler::stats() const {
  std::lock_guard lock(mutex_);
  return runner_.stats();
}

}  // namespace sidis::runtime
