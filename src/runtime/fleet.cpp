#include "runtime/fleet.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace sidis::runtime {

std::string to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kRejectNew: return "reject-new";
    case AdmissionPolicy::kShedOldest: return "shed-oldest";
  }
  return "unknown";
}

FleetFrontend::FleetFrontend(
    std::shared_ptr<const core::HierarchicalDisassembler> default_model,
    FleetConfig config, const ModelRegistry* registry)
    : config_(config), default_model_(std::move(default_model)) {
  if (default_model_ == nullptr) {
    throw std::invalid_argument("FleetFrontend: null default model");
  }
  default_stage_ = StreamingDisassembler::make_stage(default_model_, 0);
  if (registry != nullptr) view_ = std::make_unique<RegistryView>(*registry);
  init_shards();
}

FleetFrontend::FleetFrontend(StreamingDisassembler::StageRef default_stage,
                             FleetConfig config, const ModelRegistry* registry)
    : config_(config), default_stage_(std::move(default_stage)) {
  if (default_stage_ == nullptr || !default_stage_->fn) {
    throw std::invalid_argument("FleetFrontend: null default stage");
  }
  if (registry != nullptr) view_ = std::make_unique<RegistryView>(*registry);
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
  // A batch must be able to fit the whole engine credit, or a full-width
  // batch could only ever be admitted against an empty engine.
  config_.shard_depth = std::max(config_.shard_depth, config_.batch_max);

  StreamingConfig sc;
  sc.workers = config_.workers_per_shard;
  // queue_capacity == max_in_flight makes try_submit_batch hard
  // non-blocking (see its doc) -- the dispatcher must never stall the
  // submit/poll path behind a worker.
  sc.queue_capacity = config_.shard_depth;
  sc.max_in_flight = config_.shard_depth;

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<StreamingDisassembler>(default_stage_->fn, sc);
    shards_.push_back(std::move(shard));
  }
}

StreamingDisassembler::StageRef FleetFrontend::stage_for(const ResolvedModel& resolved,
                                                         bool scored) {
  std::lock_guard lock(stage_cache_mutex_);
  const auto key = std::make_tuple(resolved.name, resolved.version, scored);
  const auto it = stage_cache_.find(key);
  if (it != stage_cache_.end()) return it->second;
  // One StageRef per artifact fleet-wide: stage identity is what lets the
  // dispatcher coalesce windows of different streams into one batch.  The
  // scored twin is a distinct stage (decode streams batch with decode
  // streams of the same artifact, never with plain ones -- emissions must be
  // all-or-nothing per batch).
  auto stage =
      StreamingDisassembler::make_stage(resolved.model, resolved.checksum, scored);
  stage_cache_.emplace(key, stage);
  return stage;
}

StreamingDisassembler::StageRef FleetFrontend::default_scored_stage() {
  std::lock_guard lock(stage_cache_mutex_);
  if (default_scored_stage_ == nullptr) {
    default_scored_stage_ =
        StreamingDisassembler::make_stage(default_model_, 0, /*scored=*/true);
  }
  return default_scored_stage_;
}

FleetFrontend::StreamId FleetFrontend::open_stream(StreamOptions options) {
  StreamingDisassembler::StageRef stage;
  std::shared_ptr<const core::HierarchicalDisassembler> model;
  if (!options.model_name.empty()) {
    if (view_ == nullptr) {
      throw std::invalid_argument(
          "FleetFrontend: stream requests model '" + options.model_name +
          "' but the fleet has no registry");
    }
    const ResolvedModel resolved =
        view_->resolve(options.model_name, options.model_version);
    model = resolved.model;
    stage = stage_for(resolved, options.decode_sequence);
  } else if (options.decode_sequence) {
    if (default_model_ == nullptr) {
      throw std::invalid_argument(
          "FleetFrontend: decode_sequence requires a model-backed stream "
          "(the lattice needs the model's posterior support and emissions)");
    }
    stage = default_scored_stage();
    model = default_model_;
  } else {
    stage = default_stage_;
    model = default_model_;
  }

  std::unique_ptr<DriftMonitor> monitor;
  if (options.monitor_drift) {
    if (model == nullptr) {
      throw std::invalid_argument(
          "FleetFrontend: monitor_drift requires a model-backed stream "
          "(stage-backed fleets can only monitor registry-resolved streams)");
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
  state.decoder = std::move(decoder);
  shard.streams.emplace(id, std::move(state));
  ++shard.opened;
  return id;
}

AdmitResult FleetFrontend::submit(StreamId stream, sim::Trace trace) {
  Shard& shard = shard_of(stream);
  std::lock_guard lock(shard.mutex);
  pump_locked(shard);

  AdmitResult result;
  const auto it = shard.streams.find(stream);
  if (it == shard.streams.end() || it->second.closing) {
    result.status = AdmitStatus::kClosed;
    return result;
  }
  StreamState& s = it->second;

  AdmitStatus status = AdmitStatus::kAccepted;
  if (s.outstanding() >= config_.stream_credit) {
    if (config_.admission == AdmissionPolicy::kRejectNew) {
      ++s.rejected;
      ++shard.rejected;
      result.status = AdmitStatus::kRejected;
      return result;
    }
    // kShedOldest: reclaim the oldest window not yet inside the engine --
    // oldest pending first (never classified, cheapest loss), else oldest
    // ready (classified but undelivered).  Windows in the engine's hands
    // cannot be recalled; if everything is in flight, refuse after all.
    if (!s.pending.empty()) {
      s.pending.pop_front();
      --shard.pending_windows;
    } else if (!s.ready.empty()) {
      s.ready.pop_front();
    } else {
      ++s.rejected;
      ++shard.rejected;
      result.status = AdmitStatus::kRejected;
      return result;
    }
    ++s.shed;
    ++shard.shed;
    status = AdmitStatus::kAcceptedShedOldest;
  }

  PendingWindow window;
  window.stream_sequence = s.next_sequence++;
  window.trace = std::move(trace);
  window.admitted_at = Clock::now();
  result.status = status;
  result.stream_sequence = window.stream_sequence;
  s.pending.push_back(std::move(window));
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
    const std::size_t in_flight = shard.engine->in_flight();
    const std::size_t room = shard.engine->max_in_flight() - in_flight;
    if (room == 0 || shard.dispatch_queue.empty()) return;
    // Adaptive coalescing: while every worker has queued work (the engine is
    // not starving), hold pending windows back until a full batch_max batch
    // fits -- dispatching dribbles now would forfeit the classify_batch
    // amortization for zero latency gain, since the windows would only queue
    // inside the engine instead.  The moment the engine runs low
    // (in_flight < workers) anything pending goes out immediately, so light
    // load keeps per-window latency and saturated load gets full batches.
    const bool starving = in_flight < shard.engine->workers();
    if (!starving && (shard.pending_windows < config_.batch_max ||
                      room < config_.batch_max)) {
      return;
    }
    const std::size_t cap = std::min(room, config_.batch_max);

    // One coalescing turn: round-robin across queued streams, only streams
    // sharing the first taken stream's stage -- a batch is classified by
    // exactly one model.  Every queued stream contributes one window before
    // any stream contributes a second (fairness), but once the queue is
    // exhausted the turn keeps cycling through streams that still have
    // pending windows (the carousel) until the batch is full -- a deep
    // backlog on few streams still fills batches, which is where the
    // classify_batch amortization comes from.  Wrong-stage streams are
    // deferred to the head of the queue so the next turn picks them up
    // first.
    sim::TraceSet batch;
    std::vector<Route> routes;
    StreamingDisassembler::StageRef stage;
    std::vector<StreamId> wrong_stage;
    std::deque<StreamId> carousel;
    while (batch.size() < cap) {
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
      if (stage == nullptr) stage = s.stage;
      if (s.stage != stage) {
        wrong_stage.push_back(id);
        continue;
      }
      PendingWindow window = std::move(s.pending.front());
      s.pending.pop_front();
      --shard.pending_windows;
      Route route;
      route.stream = id;
      route.stream_sequence = window.stream_sequence;
      route.admitted_at = window.admitted_at;
      if (s.monitor != nullptr) route.trace = window.trace;
      batch.push_back(std::move(window.trace));
      routes.push_back(std::move(route));
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
    if (batch.empty()) return;

    const std::size_t n = batch.size();
    const auto seq = shard.engine->try_submit_batch(std::move(batch), stage);
    if (!seq.has_value()) {
      // Unreachable while the engine runs (room was checked under the shard
      // lock and the fleet is the engine's only producer); reachable only
      // through external cancellation of the shard engine.  Account the
      // windows as shed so delivered + shed == admitted still closes.
      for (const Route& route : routes) {
        const auto sit = shard.streams.find(route.stream);
        if (sit != shard.streams.end()) {
          --sit->second.dispatched;
          ++sit->second.shed;
        }
        ++shard.shed;
      }
      return;
    }
    // Engine sequences [*seq, *seq + n) belong to these routes, in order;
    // the engine emits in sequence order and the fleet is its only producer
    // and consumer, so appending keeps `routes` aligned with poll() order.
    (void)n;
    for (Route& route : routes) shard.routes.push_back(std::move(route));
  }
}

void FleetFrontend::append_decoded_locked(Shard& shard, StreamState& s,
                                          SmoothedWindow&& w) {
  DecodePending meta = s.decode_meta.front();
  s.decode_meta.pop_front();
  ReadyEntry entry;
  entry.result.stream_sequence = meta.stream_sequence;
  entry.result.value = std::move(w.value);
  entry.result.model_stamp = meta.model_stamp;
  entry.result.sequence_confidence = w.confidence;
  entry.result.smoothed = w.smoothed;
  entry.admitted_at = meta.admitted_at;
  ++shard.decoded;
  if (w.smoothed) ++shard.smoothed;
  s.ready.push_back(std::move(entry));
}

void FleetFrontend::drain_decoder_locked(Shard& shard, StreamState& s) {
  while (std::optional<SmoothedWindow> w = s.decoder->poll()) {
    append_decoded_locked(shard, s, std::move(*w));
  }
}

void FleetFrontend::pump_locked(Shard& shard) {
  while (auto polled = shard.engine->poll()) {
    Route route = std::move(shard.routes.front());
    shard.routes.pop_front();
    const auto it = shard.streams.find(route.stream);
    if (it == shard.streams.end()) continue;
    StreamState& s = it->second;
    ++s.arrived;
    if (s.monitor != nullptr && route.trace.has_value()) {
      // Per-stream isolation: this stream's monitor sees only this stream's
      // windows, in this stream's delivery order.  The monitor observes the
      // RAW classification, before any lattice smoothing -- drift statistics
      // must reflect what the model actually said.
      s.monitor->observe(*route.trace, polled->value);
      if (auto event = s.monitor->poll_event()) {
        s.events.push_back(*event);
        ++s.drift_events;
        ++shard.drift_events;
      }
    }
    if (s.decoder != nullptr) {
      // Per-stream lattice, fed in this stream's delivery order; whatever it
      // has committed moves on to the ready queue.
      s.decode_meta.push_back(DecodePending{route.stream_sequence,
                                            polled->model_stamp,
                                            route.admitted_at});
      s.decoder->push(std::move(polled->value));
      drain_decoder_locked(shard, s);
      continue;
    }
    ReadyEntry entry;
    entry.result.stream_sequence = route.stream_sequence;
    entry.result.value = std::move(polled->value);
    entry.result.model_stamp = polled->model_stamp;
    entry.admitted_at = route.admitted_at;
    s.ready.push_back(std::move(entry));
  }
}

std::optional<FleetResult> FleetFrontend::poll(StreamId stream) {
  Shard& shard = shard_of(stream);
  std::lock_guard lock(shard.mutex);
  pump_locked(shard);
  dispatch_locked(shard);
  const auto it = shard.streams.find(stream);
  if (it == shard.streams.end() || it->second.ready.empty()) return std::nullopt;
  StreamState& s = it->second;
  ReadyEntry entry = std::move(s.ready.front());
  s.ready.pop_front();
  ++s.delivered;
  ++shard.delivered;
  shard.admit_to_deliver.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           entry.admitted_at)
          .count()));
  return std::move(entry.result);
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
  for (;;) {
    {
      std::lock_guard lock(shard.mutex);
      const auto it = shard.streams.find(stream);
      if (it == shard.streams.end()) return {};
      it->second.closing = true;
      pump_locked(shard);
      dispatch_locked(shard);
      StreamState& s = it->second;
      if (s.pending.empty() && s.dispatched == s.arrived) {
        if (s.decoder != nullptr) {
          // The stream is over: finish the lattice with the decoder's
          // offline tail pass so every admitted window is delivered.
          for (SmoothedWindow& w : s.decoder->flush()) {
            append_decoded_locked(shard, s, std::move(w));
          }
        }
        const auto now = Clock::now();
        std::vector<FleetResult> tail;
        tail.reserve(s.ready.size());
        for (ReadyEntry& entry : s.ready) {
          ++shard.delivered;
          shard.admit_to_deliver.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  now - entry.admitted_at)
                  .count()));
          tail.push_back(std::move(entry.result));
        }
        ++shard.closed;
        shard.streams.erase(it);
        return tail;
      }
      // In-flight windows remain: release the lock so workers can classify
      // and retry (pump_locked above makes progress every turn).
    }
    std::this_thread::yield();
  }
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
    out.windows_shed += shard.shed;
    out.windows_rejected += shard.rejected;
    out.drift_events += shard.drift_events;
    out.admit_to_deliver.merge(shard.admit_to_deliver);
    out.runtime.merge(shard.engine->stats());
  }
  // The shard engines never shed (the frontend does, before they see the
  // window) -- mirror the frontend's admission outcomes into the merged
  // runtime record so one snapshot tells the whole story.  Sequence decoding
  // likewise happens frontend-side (per-stream lattices), so those counters
  // are mirrored too.
  out.runtime.windows_shed = out.windows_shed;
  out.runtime.windows_rejected = out.windows_rejected;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    out.runtime.windows_decoded += shard.decoded;
    out.runtime.windows_smoothed += shard.smoothed;
  }
  if (view_ != nullptr) out.models_cached = view_->models_cached();
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
