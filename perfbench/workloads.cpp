// The three workloads, untraced (end-to-end metrics) and traced (per-layer
// ledger).  Every workload prints every end-to-end metric; where a metric's
// stage is absent from a workload the README's table gives the definition
// used there.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "open_loop.hpp"
#include "runtime/decoder.hpp"

namespace perfbench {

namespace {

// fleet-open's frozen load.  For most of the run, Poisson arrivals at a base
// rate busy enough that workers do not idle into the hypervisor between
// windows (at 2000 windows/s every window paid a host-dependent vCPU
// wake-up); then the fleet is kept saturated with a standing queue of two
// windows per stream, and the rate it delivers is its capacity.
constexpr double kBaseRate = 24000.0;
constexpr double kBaseShare = 0.7;  ///< of the run; saturation takes the rest
constexpr std::size_t kSaturatedDepth = 2;
constexpr std::size_t kSaturatedSweeps = 3;  ///< over every generator placement

constexpr std::size_t kFleetStreams = 1000;
constexpr std::size_t kTracedStreams = 64;

/// Fleet worker threads plus the one generator thread fit the machine.
runtime::FleetConfig fleet_config() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  runtime::FleetConfig cfg;
  cfg.shards = std::clamp<std::size_t>(hw - 1, 1, 3);
  cfg.workers_per_shard = 1;
  cfg.batch_max = 16;
  cfg.stream_credit = 32;
  return cfg;
}

/// The calling thread's CPU set, narrowed within a scope and restored when
/// the scope ends.  Threads inherit the set of the thread that creates them.
class CpuScope {
 public:
  CpuScope() {
    CPU_ZERO(&original_);
    if (pthread_getaffinity_np(pthread_self(), sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuScope() { restore(); }
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

  void pin(const std::vector<int>& cpus) {
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }
  void restore() {
    if (!cpus_.empty()) pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }

  /// A closed loop moves to the next CPU every pass, so landing on a core
  /// whose neighbour on the host is busy costs a pass, not the run.
  void rotate(std::size_t pass) {
    if (!cpus_.empty()) pin({cpus_[pass % cpus_.size()]});
  }

  std::size_t count() const { return cpus_.size(); }

  /// The open-loop generator spins on CPU `g` of the set (the last one
  /// unless a placement is being swept); fleet workers, created while the
  /// thread is narrowed to the others, never share it.
  std::vector<int> worker_cpus(std::size_t g) const {
    if (cpus_.size() < 2) return cpus_;
    std::vector<int> others = cpus_;
    others.erase(others.begin() + static_cast<std::ptrdiff_t>(g % cpus_.size()));
    return others;
  }
  std::vector<int> generator_cpu(std::size_t g) const {
    return cpus_.empty() ? cpus_ : std::vector<int>{cpus_[g % cpus_.size()]};
  }
  std::size_t last() const { return cpus_.empty() ? 0 : cpus_.size() - 1; }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

std::vector<runtime::FleetFrontend::StreamId> open_streams(
    runtime::FleetFrontend& fleet, std::size_t n, const runtime::StreamOptions& options,
    bool quarter_monitored) {
  std::vector<runtime::FleetFrontend::StreamId> ids;
  ids.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    runtime::StreamOptions o = options;
    o.monitor_drift = quarter_monitored && s % 4 == 0;
    ids.push_back(fleet.open_stream(o));
  }
  return ids;
}

/// Median over sixteen consecutive stretches of each one's q-quantile:
/// interference from other tenants comes in bursts of about a second, and
/// the median stretch sits between them.
double steady_quantile(const std::vector<double>& values, double q) {
  constexpr std::size_t kParts = 16;
  std::vector<double> parts;
  for (std::size_t p = 0; p < kParts; ++p) {
    const auto b = values.begin() + static_cast<std::ptrdiff_t>(values.size() * p / kParts);
    const auto e = values.begin() + static_cast<std::ptrdiff_t>(values.size() * (p + 1) / kParts);
    if (b != e) parts.push_back(quantile({b, e}, q));
  }
  return median(parts);
}

double fraction(std::size_t hits, std::size_t total) {
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

/// classify_batch == classify and classify_batch_scored == classify_scored,
/// bit for bit, on two 16-window samples of the workload's windows.
void check_batch_identity(const core::HierarchicalDisassembler& model,
                          const sim::TraceSet& traces, Report& report) {
  for (const std::size_t from : {std::size_t{0}, traces.size() / 2}) {
    const std::size_t to = std::min(from + 16, traces.size());
    const sim::TraceSet sample(traces.begin() + static_cast<std::ptrdiff_t>(from),
                               traces.begin() + static_cast<std::ptrdiff_t>(to));
    const std::vector<core::Disassembly> plain = model.classify_batch(sample);
    const std::vector<core::Disassembly> scored = model.classify_batch_scored(sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      report.check(same(plain[i], model.classify(sample[i])),
                   "classify_batch differs from classify on window " + std::to_string(from + i));
      report.check(same(scored[i], model.classify_scored(sample[i])),
                   "classify_batch_scored differs from classify_scored on window " +
                       std::to_string(from + i));
      core::Disassembly labels_only = scored[i];
      labels_only.log_posterior.clear();
      report.check(same(labels_only, plain[i]),
                   "scored and plain verdicts differ on window " + std::to_string(from + i));
    }
  }
}

void check_accuracy(double accuracy, double floor, const std::string& workload,
                    Report& report) {
  report.check(accuracy >= floor, workload + ": accuracy " + std::to_string(accuracy) +
                                      " below its floor " + std::to_string(floor));
}

/// The traced run's runtime layer: the workload's own model and windows
/// served open-loop through a fleet, every submit/poll timed, then a burst
/// so the coalesced batch path shows in the fleet's counters as well.
void traced_fleet(std::shared_ptr<const core::HierarchicalDisassembler> model,
                  const Windows& pool, const runtime::StreamOptions& options,
                  std::size_t streams, double rate, double seconds, bool quarter_monitored,
                  std::vector<core::Disassembly> expected, std::uint64_t seed,
                  Report& report) {
  CpuScope cpu;
  cpu.pin(cpu.worker_cpus(cpu.last()));
  runtime::FleetFrontend fleet(std::move(model), fleet_config());
  cpu.pin(cpu.generator_cpu(cpu.last()));
  OpenLoop loop(fleet, open_streams(fleet, streams, options, quarter_monitored), pool,
                std::move(expected), seed);
  const Phase phase = loop.run(rate, seconds, /*time_calls=*/true);
  loop.burst(std::min<std::size_t>(streams, 64) * 16, /*time_calls=*/false);
  loop.close_all(report);
  report_fleet_layers(phase, fleet.stats(), report);
  report.attempted += phase.attempted;
  report.failed += phase.failed;
}

/// Timings of a closed loop, [pass][chunk] and [pass][window].
struct Passes {
  std::vector<std::vector<double>> chunk_s;
  std::vector<std::vector<double>> latency_us;
};

/// Element-wise minimum over passes.
std::vector<double> fastest(const std::vector<std::vector<double>>& per_pass) {
  std::vector<double> out = per_pass.front();
  for (const std::vector<double>& pass : per_pass) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], pass[i]);
  }
  return out;
}

/// windows_per_s, lat_p50_us and max_rate_wps of a closed loop.
/// Every pass repeats identical work chunk for chunk (each on the next CPU),
/// and contention from other tenants of the machine only ever adds time, so
/// each chunk's time and each window's latency is read from its fastest pass
/// before they are summed or ranked.  (A closed loop sustains exactly its throughput, so
/// that is also its highest sustainable rate.)
void report_closed_loop(const Passes& p, std::size_t windows, Report& report) {
  std::vector<double> pass_s;
  for (const std::vector<double>& chunks : p.chunk_s) {
    pass_s.push_back(std::accumulate(chunks.begin(), chunks.end(), 0.0));
  }
  const std::vector<double> chunk_s = fastest(p.chunk_s);
  const double wps =
      static_cast<double>(windows) / std::accumulate(chunk_s.begin(), chunk_s.end(), 0.0);
  const std::vector<double> latency = fastest(p.latency_us);
  report.note(std::to_string(pass_s.size()) + " passes of " + std::to_string(windows) +
              " windows; windows/s median pass " +
              std::to_string(static_cast<double>(windows) / median(pass_s)) +
              ", fastest chunks " + std::to_string(wps) + "; latency p90 " +
              std::to_string(quantile(latency, 0.90)) + " us");
  report.metric("windows_per_s", wps, "1/s");
  report.metric("lat_p50_us", quantile(latency, 0.50), "us");
  report.metric("max_rate_wps", wps, "1/s");
}

void report_common(Report& report, double setup_s) {
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace

void run_disasm112(const Options& opt, Report& report) {
  const Recipe recipe = isa_recipe();
  const Trained t = train_model(recipe);
  const core::HierarchicalDisassembler& model = *t.model;
  const Windows w = analyst_windows(recipe, 768, opt.seed);

  if (opt.trace) {
    run_ledger({&t, &w, /*scored=*/false, structural_prior()}, opt, report);
    traced_fleet(t.model, w, {}, kTracedStreams, 400.0, 2.0, false,
                 model.classify_batch(w.traces), opt.seed, report);
    return;
  }

  // The analyst: one thread, closed-loop chunks of 64.
  const std::vector<sim::TraceSet> chunks = chunked(w.traces);
  std::vector<core::Disassembly> first;
  Passes passes;
  bool repeatable = true;
  CpuScope cpu;
  const Clock::time_point begin = Clock::now();
  for (std::size_t pass = 0; pass < 3 || seconds_between(begin, Clock::now()) < opt.seconds;
       ++pass) {
    cpu.rotate(pass);
    std::vector<double>& latency = passes.latency_us.emplace_back(w.traces.size());
    std::vector<double>& chunk_s = passes.chunk_s.emplace_back();
    std::size_t at = 0;
    for (const sim::TraceSet& chunk : chunks) {
      const Clock::time_point c0 = Clock::now();
      std::vector<core::Disassembly> out = model.classify_batch(chunk);
      const Clock::time_point c1 = Clock::now();
      chunk_s.push_back(seconds_between(c0, c1));
      for (std::size_t i = 0; i < out.size(); ++i) {
        latency[at + i] = micros_between(c0, c1);
        if (pass == 0) {
          first.push_back(std::move(out[i]));
        } else {
          repeatable = repeatable && same(out[i], first[at + i]);
        }
      }
      at += chunk.size();
    }
    report.attempted += w.traces.size();
  }
  report.check(repeatable, "disasm112: classify_batch is not repeatable across passes");
  check_batch_identity(model, w.traces, report);

  Scores s;
  std::vector<std::size_t> delivered;
  for (std::size_t i = 0; i < first.size(); ++i) {
    score(first[i], w.traces[i], s);
    delivered.push_back(first[i].class_idx);
  }
  BlockTally blocks;
  blocks.add(delivered, w.truth);
  const double accuracy = fraction(s.class_hits, s.windows);
  check_accuracy(accuracy, 0.85, "disasm112", report);

  report_common(report, t.capture_s + t.train_s + t.calibrate_s);
  report_closed_loop(passes, w.traces.size(), report);
  report.metric("accuracy", accuracy, "fraction");
  report.metric("operand_accuracy", fraction(s.operand_hits, s.windows), "fraction");
  report.metric("decoded_accuracy", accuracy, "fraction");
  report.metric("block_recovery", blocks.rate(), "fraction");
}

void run_decode112(const Options& opt, Report& report) {
  const Recipe recipe = isa_recipe();
  const Trained t = train_model(recipe);
  const core::HierarchicalDisassembler& model = *t.model;
  avr::Program image;
  const Windows w = firmware_windows(recipe, 1536, opt.seed, image);
  const std::shared_ptr<const core::IsaPrior> prior = firmware_prior(image);
  runtime::SequenceDecoderConfig dcfg;
  dcfg.lag = 6;

  if (opt.trace) {
    run_ledger({&t, &w, /*scored=*/true, prior}, opt, report);
    runtime::StreamOptions decode;
    decode.decode_sequence = true;
    decode.decode = dcfg;
    decode.decode_prior = prior;
    traced_fleet(t.model, w, decode, kTracedStreams, 300.0, 2.0, false, {}, opt.seed,
                 report);
    return;
  }

  // Firmware reverse engineering: scored chunks of 64 into one lag-6
  // lattice; a window is done when the decoder emits it.
  const std::vector<sim::TraceSet> chunks = chunked(w.traces);
  std::vector<std::size_t> first_decoded;
  Passes passes;
  Scores s;
  bool repeatable = true;
  std::vector<Clock::time_point> submitted(w.traces.size());
  CpuScope cpu;
  const Clock::time_point begin = Clock::now();
  for (std::size_t pass = 0; pass < 3 || seconds_between(begin, Clock::now()) < opt.seconds;
       ++pass) {
    cpu.rotate(pass);
    runtime::SequenceDecoder decoder(model.posterior_classes(), prior, dcfg);
    std::vector<double>& latency = passes.latency_us.emplace_back(w.traces.size());
    std::vector<std::size_t> decoded;
    decoded.reserve(w.traces.size());
    const auto emit = [&](const runtime::SmoothedWindow& sw) {
      if (decoded.size() < latency.size()) {
        latency[decoded.size()] = micros_between(submitted[decoded.size()], Clock::now());
      }
      decoded.push_back(sw.value.class_idx);
    };
    std::vector<double>& chunk_s = passes.chunk_s.emplace_back();
    std::size_t at = 0;
    for (const sim::TraceSet& chunk : chunks) {
      const Clock::time_point c0 = Clock::now();
      std::vector<core::Disassembly> out = model.classify_batch_scored(chunk);
      for (std::size_t i = 0; i < out.size(); ++i) {
        submitted[at + i] = c0;
        if (pass == 0) score(out[i], w.traces[at + i], s);
        decoder.push(std::move(out[i]));
        while (auto sw = decoder.poll()) emit(*sw);
      }
      at += chunk.size();
      if (at == w.traces.size()) {
        for (const runtime::SmoothedWindow& sw : decoder.flush()) emit(sw);
      }
      chunk_s.push_back(seconds_between(c0, Clock::now()));
    }
    report.attempted += w.traces.size();
    if (pass == 0) {
      first_decoded = std::move(decoded);
    } else {
      repeatable = repeatable && decoded == first_decoded;
    }
  }
  report.check(repeatable, "decode112: decoding is not repeatable across passes");
  report.check(first_decoded.size() == w.traces.size(), "decode112: decoder lost windows");
  check_batch_identity(model, w.traces, report);

  std::size_t decoded_hits = 0;
  for (std::size_t i = 0; i < first_decoded.size(); ++i) {
    decoded_hits += first_decoded[i] == w.truth[i] ? 1 : 0;
  }
  BlockTally blocks;
  blocks.add(first_decoded, w.truth);
  const double accuracy = fraction(s.class_hits, s.windows);
  const double decoded_accuracy = fraction(decoded_hits, w.truth.size());
  check_accuracy(accuracy, 0.70, "decode112", report);
  check_accuracy(decoded_accuracy, 0.70, "decode112 (decoded)", report);

  report_common(report, t.capture_s + t.train_s + t.calibrate_s);
  report_closed_loop(passes, w.traces.size(), report);
  report.metric("accuracy", accuracy, "fraction");
  report.metric("operand_accuracy", fraction(s.operand_hits, s.windows), "fraction");
  report.metric("decoded_accuracy", decoded_accuracy, "fraction");
  report.metric("block_recovery", blocks.rate(), "fraction");
}

void run_fleet_open(const Options& opt, Report& report) {
  // Set-up is cheap here, so it is repeated and its median reported.
  const Recipe recipe = fleet_recipe();
  Trained t;
  std::unique_ptr<runtime::FleetFrontend> fleet;
  std::vector<runtime::FleetFrontend::StreamId> ids;
  std::vector<double> setup_s;
  CpuScope cpu;
  for (int rep = 0; rep < 9; ++rep) {
    fleet.reset();
    t = train_model(recipe);
    const Clock::time_point f0 = Clock::now();
    cpu.pin(cpu.worker_cpus(cpu.last()));
    fleet = std::make_unique<runtime::FleetFrontend>(t.model, fleet_config());
    cpu.restore();
    ids = open_streams(*fleet, kFleetStreams, {}, /*quarter_monitored=*/true);
    setup_s.push_back(t.capture_s + t.train_s + t.calibrate_s +
                      seconds_between(f0, Clock::now()));
  }
  const Windows pool = fleet_windows(recipe, 1024, opt.seed);
  std::vector<core::Disassembly> expected = t.model->classify_batch(pool.traces);

  if (opt.trace) {
    run_ledger({&t, &pool, /*scored=*/false, structural_prior()}, opt, report);
    fleet.reset();
    traced_fleet(t.model, pool, {}, kFleetStreams, kBaseRate, kBaseShare * opt.seconds, true,
                 std::move(expected), opt.seed, report);
    return;
  }

  cpu.pin(cpu.generator_cpu(cpu.last()));
  OpenLoop loop(*fleet, ids, pool, expected, opt.seed);
  const Phase base = loop.run(kBaseRate, kBaseShare * opt.seconds, false);
  loop.close_all(report);
  fleet.reset();
  report.attempted += base.attempted;
  report.failed += base.failed;
  report.check(base.failed == 0, "fleet-open: windows failed at the base rate");

  const double accuracy = fraction(loop.scores().class_hits, loop.scores().windows);
  check_accuracy(accuracy, 0.80, "fleet-open", report);
  report.note("base rate: " + std::to_string(base.latency_us.size()) +
              " windows, latency p50 " + std::to_string(steady_quantile(base.latency_us, 0.5)) +
              " us, p90 " + std::to_string(steady_quantile(base.latency_us, 0.9)) +
              " us, p99 " + std::to_string(steady_quantile(base.latency_us, 0.99)) +
              " us beside generator lag p99 " +
              std::to_string(quantile(base.gen_lag_us, 0.99)) + " us");

  // Capacity: a fresh fleet kept saturated in short stretches, sweeping the
  // generator over every CPU, the workers on the others.  Other tenants of
  // the machine slow a vCPU for a while and only ever cost capacity, so the
  // best stretch shows what the fleet sustains.
  const std::size_t placements = std::max<std::size_t>(cpu.count(), 1);
  const std::size_t stretches = kSaturatedSweeps * placements;
  const double stretch_s = (1.0 - kBaseShare) * opt.seconds / static_cast<double>(stretches);
  double capacity = 0.0, saturated_s = 0.0;
  std::uint64_t saturated_windows = 0;
  for (std::size_t i = 0; i < stretches; ++i) {
    const std::size_t g = i % placements;
    cpu.pin(cpu.worker_cpus(g));
    runtime::FleetFrontend saturated(t.model, fleet_config());
    cpu.pin(cpu.generator_cpu(g));
    OpenLoop full(saturated, open_streams(saturated, kFleetStreams, {}, true), pool, expected,
                  opt.seed);
    const Phase p = full.saturate(stretch_s, kSaturatedDepth);
    full.close_all(report);
    report.attempted += p.attempted;
    report.failed += p.failed;
    report.check(p.failed == 0, "fleet-open: windows failed with the fleet saturated");
    report.note("saturated, generator on CPU slot " + std::to_string(g) + ": " +
                std::to_string(p.delivered) + " windows, " + std::to_string(p.sustained_wps) +
                " windows/s");
    capacity = std::max(capacity, p.sustained_wps);
    saturated_windows += p.delivered;
    saturated_s += p.wall_s;
  }

  report_common(report, median(setup_s));
  report.metric("windows_per_s",
                static_cast<double>(base.delivered + saturated_windows) /
                    (base.wall_s + saturated_s),
                "1/s");
  report.metric("accuracy", accuracy, "fraction");
  report.metric("operand_accuracy",
                fraction(loop.scores().operand_hits, loop.scores().windows), "fraction");
  report.metric("decoded_accuracy", accuracy, "fraction");
  report.metric("block_recovery", loop.blocks().rate(), "fraction");
  report.metric("lat_p50_us", steady_quantile(base.latency_us, 0.50), "us");
  report.metric("max_rate_wps", capacity, "1/s");
}

}  // namespace perfbench
