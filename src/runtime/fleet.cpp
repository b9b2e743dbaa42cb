#include "runtime/fleet.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace sidis::runtime {

namespace {

void check_acquisition(const std::optional<sim::AcquisitionConfig>& expected,
                       const sim::Trace& t) {
  if (!expected) return;
  if (t.meta.samples_per_cycle != expected->samples_per_cycle ||
      t.meta.adc_bits != expected->adc_bits ||
      t.samples.size() != expected->window_samples()) {
    throw std::invalid_argument(
        "FleetFrontend: trace acquisition stamp does not match the stream's "
        "expected_acquisition (rate/resolution/window)");
  }
}

}  // namespace

std::string to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kRejectNew: return "reject-new";
    case AdmissionPolicy::kShedOldest: return "shed-oldest";
    case AdmissionPolicy::kBlock: return "block";
  }
  return "unknown";
}

FleetFrontend::FleetFrontend(
    std::shared_ptr<const core::HierarchicalDisassembler> default_model,
    FleetConfig config, const ModelRegistry* registry)
    : FleetFrontend(make_stage(std::move(default_model)), config, registry) {}

FleetFrontend::FleetFrontend(StageRef default_stage, FleetConfig config,
                             const ModelRegistry* registry)
    : config_(config), registry_(registry) {
  if (default_stage == nullptr || !default_stage->classify) {
    throw std::invalid_argument("FleetFrontend: null default stage");
  }
  models_.emplace(std::make_pair(std::string(), 0),
                  CachedModel{std::move(default_stage), nullptr});
  init_shards();
}

FleetFrontend::~FleetFrontend() = default;

void FleetFrontend::init_shards() {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  if (config_.stream_credit == 0) config_.stream_credit = 1;
  if (config_.shard_depth == 0) {
    config_.shard_depth = std::max<std::size_t>(4 * config_.batch_max, 64);
  }
  // A full-width batch must fit the shard credit, or it could only ever be
  // dispatched against an idle shard.
  config_.shard_depth = std::max(config_.shard_depth, config_.batch_max);

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.workers_per_shard));
  }
}

StageRef FleetFrontend::resolve_stage(const StreamOptions& options) {
  const std::string& name = options.model_name;
  if (!name.empty() && registry_ == nullptr) {
    throw std::invalid_argument("FleetFrontend: stream requests model '" + name +
                                "' but the fleet has no registry");
  }
  int version = name.empty() ? 0 : options.model_version;
  std::lock_guard lock(models_mutex_);
  if (!name.empty() && version == 0) {
    // Pin "latest" on first resolution; later saves do not retarget it.
    const auto pinned = latest_.find(name);
    if (pinned != latest_.end()) {
      version = pinned->second;
    } else {
      version = registry_->latest_version(name);
      if (version == 0) {
        throw std::runtime_error("FleetFrontend: no versions of bundle '" + name + "'");
      }
      latest_.emplace(name, version);
    }
  }
  auto it = models_.find({name, version});
  if (it == models_.end()) {
    // info() checksums the payload before we pay for deserialization, and
    // its checksum is the stamp every stream serving this artifact reports.
    const std::uint64_t checksum = registry_->info(name, version).checksum;
    auto model = std::make_shared<const core::HierarchicalDisassembler>(
        registry_->load(name, version));
    it = models_.emplace(std::make_pair(name, version),
                         CachedModel{make_stage(std::move(model), checksum), nullptr})
             .first;
  }
  CachedModel& cached = it->second;
  if (!options.decode_sequence) return cached.plain;
  if (cached.plain->model == nullptr) {
    throw std::invalid_argument(
        "FleetFrontend: decode_sequence requires a model-backed stream "
        "(the lattice needs the model's posterior support and emissions)");
  }
  if (cached.scored == nullptr) {
    cached.scored = make_stage(cached.plain->model, cached.plain->stamp, /*scored=*/true);
  }
  return cached.scored;
}

FleetFrontend::StreamId FleetFrontend::open_stream(StreamOptions options) {
  StageRef stage = resolve_stage(options);
  const std::shared_ptr<const core::HierarchicalDisassembler>& model = stage->model;

  std::unique_ptr<DriftMonitor> monitor;
  if (options.monitor_drift) {
    if (model == nullptr) {
      throw std::invalid_argument(
          "FleetFrontend: monitor_drift requires a model-backed stream "
          "(fused and custom stages name no model to project features through)");
    }
    monitor = std::make_unique<DriftMonitor>(model, options.drift);
  }

  std::unique_ptr<SequenceDecoder> decoder;
  if (options.decode_sequence) {
    if (options.decode_prior == nullptr) {
      throw std::invalid_argument(
          "FleetFrontend: decode_sequence needs a transition prior");
    }
    decoder = std::make_unique<SequenceDecoder>(
        model->posterior_classes(), options.decode_prior, options.decode);
  }

  const StreamId id = next_stream_id_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shard_of(id);
  std::lock_guard lock(shard.mutex);
  StreamState state;
  state.stage = std::move(stage);
  state.monitor = std::move(monitor);
  state.expected_acquisition = options.expected_acquisition;
  state.out.set_decoder(std::move(decoder));
  shard.streams.emplace(id, std::move(state));
  ++shard.opened;
  return id;
}

AdmitResult FleetFrontend::submit(StreamId stream, sim::Trace trace) {
  Shard& shard = shard_of(stream);
  std::unique_lock lock(shard.mutex);
  pump_locked(shard);

  AdmitResult result;
  auto it = shard.streams.find(stream);
  if (it == shard.streams.end() || it->second.closing) {
    result.status = AdmitStatus::kClosed;
    return result;
  }
  check_acquisition(it->second.expected_acquisition, trace);

  AdmitStatus status = AdmitStatus::kAccepted;
  if (config_.admission == AdmissionPolicy::kBlock) {
    // Wait for room the way close_stream waits for the tail: pump and
    // dispatch on every worker completion, so windows held back for
    // coalescing still go out.  The stream may close (or be erased by a
    // concurrent close) while the lock is released.
    shard.runner.wait(lock, [&] {
      pump_locked(shard);
      dispatch_locked(shard);
      it = shard.streams.find(stream);
      return it == shard.streams.end() || it->second.closing ||
             it->second.unclassified() < config_.stream_credit;
    });
    if (it == shard.streams.end() || it->second.closing) {
      result.status = AdmitStatus::kClosed;
      return result;
    }
  }
  StreamState& s = it->second;
  if (config_.admission != AdmissionPolicy::kBlock &&
      s.outstanding() >= config_.stream_credit) {
    if (config_.admission == AdmissionPolicy::kRejectNew) {
      ++s.rejected;
      ++shard.runner.stats().windows_rejected;
      result.status = AdmitStatus::kRejected;
      return result;
    }
    // kShedOldest: reclaim the oldest window not in the workers' hands --
    // oldest pending first (never classified, cheapest loss), else oldest
    // ready (classified but undelivered).  Dispatched windows cannot be
    // recalled; if everything is in flight, refuse after all.
    if (!s.pending.empty()) {
      s.pending.pop_front();
      --shard.pending_windows;
    } else if (!s.out.ready.empty()) {
      s.out.ready.pop_front();
    } else {
      ++s.rejected;
      ++shard.runner.stats().windows_rejected;
      result.status = AdmitStatus::kRejected;
      return result;
    }
    ++s.shed;
    ++shard.runner.stats().windows_shed;
    status = AdmitStatus::kAcceptedShedOldest;
  }

  result.status = status;
  result.stream_sequence = s.next_sequence++;
  s.pending.push_back(PendingWindow{
      Job::Route{stream, result.stream_sequence, Clock::now(), s.monitor != nullptr},
      s.stage, std::move(trace)});
  ++shard.pending_windows;
  ++s.admitted;
  ++shard.admitted;
  if (!s.queued_for_dispatch) {
    s.queued_for_dispatch = true;
    shard.dispatch_queue.push_back(stream);
  }
  dispatch_locked(shard);
  return result;
}

void FleetFrontend::dispatch_locked(Shard& shard) {
  for (;;) {
    const std::size_t in_flight = shard.runner.unclassified();
    const std::size_t room = config_.shard_depth - in_flight;
    if (room == 0 || shard.dispatch_queue.empty()) return;
    // Adaptive coalescing: while every worker has queued work (the shard is
    // not starving), hold pending windows back until a full batch_max batch
    // fits -- dispatching dribbles now would forfeit the classify_batch
    // amortization for zero latency gain, since the windows would only queue
    // in the slot FIFO instead.  The moment the shard runs low
    // (in_flight < workers) anything pending goes out immediately, so light
    // load keeps per-window latency and saturated load gets full batches.
    const bool starving = in_flight < shard.runner.workers();
    if (!starving && (shard.pending_windows < config_.batch_max ||
                      room < config_.batch_max)) {
      return;
    }
    const std::size_t cap = std::min(room, config_.batch_max);

    // One coalescing turn: round-robin across queued streams, only windows
    // pinned to the first taken window's stage -- a batch is classified by
    // exactly one model.  Every queued stream contributes one window before
    // any stream contributes a second (fairness), but once the queue is
    // exhausted the turn keeps cycling through streams that still have
    // pending windows (the carousel) until the batch is full -- a deep
    // backlog on few streams still fills batches, which is where the
    // classify_batch amortization comes from.  Wrong-stage streams are
    // deferred to the head of the queue so the next turn picks them up
    // first.
    Job job;
    std::vector<StreamId> wrong_stage;
    std::deque<StreamId> carousel;
    while (job.traces.size() < cap) {
      StreamId id = 0;
      if (!shard.dispatch_queue.empty()) {
        id = shard.dispatch_queue.front();
        shard.dispatch_queue.pop_front();
      } else if (!carousel.empty()) {
        id = carousel.front();
        carousel.pop_front();
      } else {
        break;
      }
      const auto it = shard.streams.find(id);
      if (it == shard.streams.end()) continue;
      StreamState& s = it->second;
      if (s.pending.empty()) {
        s.queued_for_dispatch = false;
        continue;
      }
      PendingWindow& window = s.pending.front();
      if (job.stage == nullptr) job.stage = window.stage;
      if (window.stage != job.stage) {
        wrong_stage.push_back(id);
        continue;
      }
      job.traces.push_back(std::move(window.trace));
      job.routes.push_back(window.route);
      s.pending.pop_front();
      --shard.pending_windows;
      ++s.dispatched;
      if (!s.pending.empty()) {
        carousel.push_back(id);
      } else {
        s.queued_for_dispatch = false;
      }
    }
    for (auto rit = wrong_stage.rbegin(); rit != wrong_stage.rend(); ++rit) {
      shard.dispatch_queue.push_front(*rit);
    }
    for (const StreamId id : carousel) shard.dispatch_queue.push_back(id);
    if (job.traces.empty()) return;
    shard.runner.dispatch(std::move(job));
  }
}

void FleetFrontend::pump_locked(Shard& shard) {
  shard.runner.pump([&shard](const Job& job, std::size_t i, Ready ready) {
    // The walk's monitor features serve this pump only: no ready FIFO or
    // consumer holds them.
    const linalg::Vector features = std::move(ready.result.value.monitor_features);
    const auto it = shard.streams.find(job.routes[i].stream);
    if (it == shard.streams.end()) return;
    StreamState& s = it->second;
    ++s.arrived;
    if (s.monitor != nullptr) {
      // Per-stream isolation: this stream's monitor sees only this stream's
      // windows, in this stream's delivery order.  The monitor observes the
      // RAW classification, before any lattice smoothing -- drift statistics
      // must reflect what the model actually said.  Features from the
      // monitor's own model are folded as they are; any other stage (a swap
      // to another model, a fused or custom stage) has the monitor transform
      // the window itself.
      RuntimeStats& stats = shard.runner.stats();
      if (!features.empty() && job.stage->model == s.monitor->model()) {
        s.monitor->observe_features(
            features, ready.result.value.verdict == core::Verdict::kRejected);
        ++stats.monitor_folds;
      } else {
        s.monitor->observe(job.traces[i], ready.result.value);
        ++stats.monitor_retransforms;
      }
      if (auto event = s.monitor->poll_event()) {
        s.events.push_back(*event);
        ++s.drift_events;
        ++shard.drift_events;
      }
    }
    s.out.push(std::move(ready), shard.runner.stats());
  });
}

FleetResult FleetFrontend::deliver_locked(Shard& shard, StreamState& s, Ready ready) {
  ++s.delivered;
  ++shard.delivered;
  shard.admit_to_deliver.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ready.admitted_at)
          .count()));
  return std::move(ready.result);
}

std::optional<FleetResult> FleetFrontend::poll(StreamId stream) {
  Shard& shard = shard_of(stream);
  std::lock_guard lock(shard.mutex);
  pump_locked(shard);
  dispatch_locked(shard);
  const auto it = shard.streams.find(stream);
  if (it == shard.streams.end() || it->second.out.ready.empty()) return std::nullopt;
  StreamState& s = it->second;
  Ready ready = std::move(s.out.ready.front());
  s.out.ready.pop_front();
  return deliver_locked(shard, s, std::move(ready));
}

std::optional<DriftEvent> FleetFrontend::poll_drift_event(StreamId stream) {
  Shard& shard = shard_of(stream);
  std::lock_guard lock(shard.mutex);
  pump_locked(shard);
  const auto it = shard.streams.find(stream);
  if (it == shard.streams.end() || it->second.events.empty()) return std::nullopt;
  DriftEvent event = it->second.events.front();
  it->second.events.pop_front();
  return event;
}

std::vector<FleetResult> FleetFrontend::close_stream(StreamId stream) {
  Shard& shard = shard_of(stream);
  std::unique_lock lock(shard.mutex);
  auto it = shard.streams.find(stream);
  if (it == shard.streams.end()) return {};
  it->second.closing = true;
  shard.runner.notify();  // a submit blocked on the stream's credit bails out
  // Pump and dispatch until every window of the stream is back, sleeping
  // while workers still hold some (the wait releases the shard lock).
  shard.runner.wait(lock, [&] {
    pump_locked(shard);
    dispatch_locked(shard);
    it = shard.streams.find(stream);
    return it == shard.streams.end() ||
           (it->second.pending.empty() && it->second.dispatched == it->second.arrived);
  });
  if (it == shard.streams.end()) return {};  // closed by a concurrent call
  StreamState& s = it->second;
  // The stream is over: finish the lattice with the decoder's offline tail
  // pass so every admitted window is delivered.
  s.out.flush(shard.runner.stats());
  std::vector<FleetResult> tail;
  for (Ready& ready : s.out.ready) {
    tail.push_back(deliver_locked(shard, s, std::move(ready)));
  }
  ++shard.closed;
  shard.streams.erase(it);
  return tail;
}

void FleetFrontend::swap_stage(StreamId stream, StageRef stage) {
  if (stage == nullptr || !stage->classify) {
    throw std::invalid_argument("FleetFrontend: null stage or no classify function");
  }
  Shard& shard = shard_of(stream);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.streams.find(stream);
  if (it == shard.streams.end()) return;
  it->second.stage = std::move(stage);
  ++shard.runner.stats().model_swaps;
}

StreamStats FleetFrontend::stream_stats(StreamId stream) const {
  const Shard& shard = shard_of(stream);
  std::lock_guard lock(shard.mutex);
  StreamStats out;
  const auto it = shard.streams.find(stream);
  if (it == shard.streams.end()) return out;
  const StreamState& s = it->second;
  out.windows_admitted = s.admitted;
  out.windows_delivered = s.delivered;
  out.windows_shed = s.shed;
  out.windows_rejected = s.rejected;
  out.drift_events = s.drift_events;
  out.outstanding = s.outstanding();
  return out;
}

FleetStats FleetFrontend::stats() const {
  FleetStats out;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    out.streams_opened += shard.opened;
    out.streams_closed += shard.closed;
    out.streams_live += shard.streams.size();
    out.windows_admitted += shard.admitted;
    out.windows_delivered += shard.delivered;
    out.drift_events += shard.drift_events;
    out.admit_to_deliver.merge(shard.admit_to_deliver);
    out.runtime.merge(shard.runner.stats());
  }
  out.windows_shed = out.runtime.windows_shed;
  out.windows_rejected = out.runtime.windows_rejected;
  {
    std::lock_guard lock(models_mutex_);
    out.models_cached = models_.size() - 1;  // the default stage is no artifact
  }
  return out;
}

std::string FleetStats::report() const {
  std::ostringstream os;
  os << "fleet: streams open=" << streams_opened << " closed=" << streams_closed
     << " live=" << streams_live << '\n';
  os << "  windows: admitted=" << windows_admitted
     << " delivered=" << windows_delivered << " shed=" << windows_shed
     << " rejected=" << windows_rejected << '\n';
  os << "  drift events=" << drift_events << " models cached=" << models_cached
     << '\n';
  os << "  admit->deliver: " << admit_to_deliver.summary() << '\n';
  os << runtime.report();
  return os.str();
}

}  // namespace sidis::runtime
