#include "open_loop.hpp"

#include <stdexcept>

namespace perfbench {

namespace {
constexpr Clock::duration kPollInterval = std::chrono::microseconds(20);
}  // namespace

OpenLoop::OpenLoop(runtime::FleetFrontend& fleet, std::vector<StreamId> streams,
                   const Windows& pool, std::vector<core::Disassembly> expected,
                   std::uint64_t seed)
    : fleet_(fleet), pool_(pool), expected_(std::move(expected)), rng_(seed) {
  if (pool.traces.empty()) throw std::invalid_argument("OpenLoop: empty window pool");
  streams_.reserve(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    Stream st;
    st.id = streams[s];
    st.cursor = (7 * s) % pool.traces.size();
    streams_.push_back(std::move(st));
  }
}

void OpenLoop::deliver(Stream& s, const runtime::FleetResult& r, Clock::time_point at,
                       Phase* phase) {
  if (s.outstanding.empty()) {
    fifo_ok_ = false;
    return;
  }
  const Outstanding o = s.outstanding.front();
  s.outstanding.pop_front();
  if (r.stream_sequence != o.sequence) fifo_ok_ = false;
  if (!expected_.empty() && !same(r.value, expected_[o.window])) identical_ok_ = false;
  score(r.value, pool_.traces[o.window], scores_);
  if (phase != nullptr) {
    ++phase->delivered;
    if (!phase->sampled) return;
    phase->latency_us.push_back(micros_between(o.due, at));
  }
  s.delivered.push_back(r.value.class_idx);
  s.truth.push_back(pool_.truth[o.window]);
}

Phase OpenLoop::run(double rate_wps, double seconds, bool time_calls) {
  Phase phase;
  phase.seconds = seconds;
  // The arrival schedule is drawn before the clock starts.
  std::exponential_distribution<double> gap(rate_wps);
  std::uniform_int_distribution<std::size_t> pick(0, streams_.size() - 1);
  std::vector<Clock::duration> offsets;
  std::vector<std::uint32_t> who;
  for (double t = gap(rng_); t < seconds; t += gap(rng_)) {
    offsets.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
    who.push_back(static_cast<std::uint32_t>(pick(rng_)));
  }
  return drive(offsets, who, std::move(phase), time_calls);
}

Phase OpenLoop::burst(std::size_t windows, bool time_calls) {
  std::vector<Clock::duration> offsets(windows, Clock::duration::zero());
  std::vector<std::uint32_t> who(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    who[i] = static_cast<std::uint32_t>(i % streams_.size());
  }
  Phase phase;
  phase.seconds = 1e-9;
  return drive(offsets, who, std::move(phase), time_calls);
}

bool OpenLoop::submit(Stream& s, Clock::time_point due, Phase& phase, bool time_calls) {
  const std::size_t w = s.cursor;
  s.cursor = (s.cursor + 1) % pool_.traces.size();
  const Clock::time_point t0 = Clock::now();
  runtime::AdmitResult admit;
  try {
    admit = fleet_.submit(s.id, pool_.traces[w]);
  } catch (const std::exception&) {
    admit.status = runtime::AdmitStatus::kRejected;
  }
  if (time_calls) {
    phase.submit_us += micros_between(t0, Clock::now());
    ++phase.submit_calls;
  }
  if (phase.sampled) phase.gen_lag_us.push_back(micros_between(due, t0));
  ++phase.attempted;
  // Only a clean admission counts: a shed-oldest admission loses an older
  // window of the same stream.
  if (admit.status != runtime::AdmitStatus::kAccepted) {
    ++phase.failed;
    return false;
  }
  s.outstanding.push_back({admit.stream_sequence, due, w});
  if (!s.active) {
    s.active = true;
    active_.push_back(static_cast<std::size_t>(&s - streams_.data()));
  }
  return true;
}

std::uint64_t OpenLoop::poll_stream(Stream& s, Phase& phase, bool time_calls) {
  for (std::uint64_t delivered = 0;; ++delivered) {
    const Clock::time_point t0 = Clock::now();
    std::optional<runtime::FleetResult> r = fleet_.poll(s.id);
    const Clock::time_point t1 = Clock::now();
    if (time_calls) {
      phase.poll_us += micros_between(t0, t1);
      ++phase.poll_calls;
    }
    if (!r) return delivered;
    deliver(s, *r, t1, &phase);
  }
}

std::uint64_t OpenLoop::poll_active(Phase& phase, bool time_calls) {
  std::uint64_t delivered = 0;
  for (std::size_t k = 0; k < active_.size();) {
    Stream& s = streams_[active_[k]];
    delivered += poll_stream(s, phase, time_calls);
    if (s.outstanding.empty()) {
      s.active = false;
      active_[k] = active_.back();
      active_.pop_back();
    } else {
      ++k;
    }
  }
  return delivered;
}

Phase OpenLoop::drive(const std::vector<Clock::duration>& offsets,
                      const std::vector<std::uint32_t>& who, Phase phase, bool time_calls) {
  phase.latency_us.reserve(offsets.size());
  phase.gen_lag_us.reserve(offsets.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phase.seconds + 10.0));
  std::size_t next = 0;
  Clock::time_point next_poll = start;
  for (;;) {
    Clock::time_point now = Clock::now();
    for (; next < offsets.size() && start + offsets[next] <= now; ++next) {
      submit(streams_[who[next]], start + offsets[next], phase, time_calls);
    }
    // Polling takes the shard locks the workers need, so outstanding streams
    // are polled on a fixed cadence rather than in a tight loop.
    now = Clock::now();
    if (now < next_poll) continue;
    next_poll = now + kPollInterval;
    poll_active(phase, time_calls);
    if (next == offsets.size() && (active_.empty() || Clock::now() > give_up)) break;
  }
  phase.wall_s = seconds_between(start, Clock::now());
  return phase;
}

Phase OpenLoop::saturate(double seconds, std::size_t depth) {
  Phase phase;
  phase.seconds = seconds;
  phase.sampled = false;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  while (Clock::now() < stop) {
    for (Stream& s : streams_) {
      poll_stream(s, phase, false);
      while (s.outstanding.size() < depth && submit(s, Clock::now(), phase, false)) {
      }
    }
  }
  phase.sustained_wps =
      static_cast<double>(phase.delivered) / seconds_between(start, Clock::now());
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (!active_.empty() && Clock::now() < give_up) poll_active(phase, false);
  phase.wall_s = seconds_between(start, Clock::now());
  return phase;
}

void OpenLoop::close_all(Report& report) {
  for (Stream& s : streams_) {
    for (const runtime::FleetResult& r : fleet_.close_stream(s.id)) {
      deliver(s, r, Clock::now(), nullptr);
    }
    if (!s.outstanding.empty()) fifo_ok_ = false;
  }
  active_.clear();
  const runtime::FleetStats stats = fleet_.stats();
  report.check(stats.windows_delivered + stats.windows_shed == stats.windows_admitted,
               "fleet ledger: delivered + shed != admitted");
  report.check(fifo_ok_, "fleet: per-stream FIFO delivery broken or windows lost");
  report.check(identical_ok_, "fleet: a delivered verdict differs from classify_batch");
}

BlockTally OpenLoop::blocks() const {
  BlockTally tally;
  for (const Stream& s : streams_) {
    if (!s.truth.empty()) tally.add(s.delivered, s.truth);
  }
  return tally;
}

void report_fleet_layers(const Phase& phase, const runtime::FleetStats& stats,
                         Report& report) {
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  report.metric("runtime.submit_us", per(phase.submit_us, phase.submit_calls), "us");
  report.metric("runtime.poll_us", per(phase.poll_us, phase.poll_calls), "us");
  report.metric("runtime.lat_p99_us", quantile(phase.latency_us, 0.99), "us");
  report.metric("runtime.gen_lag_us_p99", quantile(phase.gen_lag_us, 0.99), "us");
  report.metric("runtime.windows_per_batch", stats.runtime.windows_per_batch.mean_nanos(),
                "count");
  report.metric("runtime.batch_ns_per_win",
                per(static_cast<double>(stats.runtime.batch_classify_nanos),
                    stats.runtime.batch_classified_windows),
                "ns");
  report.metric("runtime.scalar_ns_per_win",
                per(static_cast<double>(stats.runtime.scalar_classify_nanos),
                    stats.runtime.scalar_classified_windows),
                "ns");
}

}  // namespace perfbench
