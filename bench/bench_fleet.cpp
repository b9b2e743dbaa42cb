// Fleet-scale serving: thousands of logical device streams multiplexed onto
// a handful of shared worker shards (runtime::FleetFrontend) versus the
// naive deployment -- one dedicated one-stream fleet per device (one shard,
// one worker, no coalescing) -- at EQUAL window load.
//
// The fleet wins two ways: batched classification amortizes one
// feature-extraction workspace across up to batch_max windows per worker
// pass, and shared long-lived shards amortize shard/thread setup that the
// per-device deployment pays per stream.  The bench measures both
// deployments on the same window load, reports aggregate windows/sec and
// admit->deliver latency quantiles, and exercises the admission-control
// ledger under deliberate over-admission.  The fleet-vs-dedicated speedup is
// the median of per-pair ratios over alternated fleet/dedicated legs, after
// one untimed warm-up leg of each, so a cold first leg or a noisy neighbour
// during one leg cannot swing it.
//
// Results go to BENCH_fleet.json (override with SIDIS_BENCH_OUT); CI diffs
// the criteria against the checked-in baseline with `bench/check.py fleet`.
// SIDIS_FAST=1 shrinks the fleet to smoke scale; SIDIS_FLEET_STREAMS /
// SIDIS_FLEET_WINDOWS override the load.
#include "bench/common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/hierarchical.hpp"
#include "runtime/fleet.hpp"

using namespace sidis;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One device's dedicated deployment: one shard with one worker, no
/// coalescing, and a producer that blocks at 32 unclassified windows.
runtime::FleetConfig dedicated_config() {
  runtime::FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.batch_max = 1;
  cfg.stream_credit = 32;
  cfg.admission = runtime::AdmissionPolicy::kBlock;
  return cfg;
}

struct FleetRun {
  double wall_secs = 0.0;
  double windows_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double coalescing = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t delivered = 0;
  bool in_order = true;
  /// Batch-amortization counters from RuntimeStats: realized windows/batch
  /// histogram plus the classify wall-time split between the lane-vectorized
  /// batch path and the scalar path.
  std::string windows_per_batch;
  std::uint64_t batch_win = 0;
  std::uint64_t scalar_win = 0;
  double batch_ns_per_win = 0.0;
  double scalar_ns_per_win = 0.0;
};

struct BaselineRun {
  double wall_secs = 0.0;
  double windows_per_sec = 0.0;
};

struct ShedRun {
  std::size_t credit = 0;
  std::uint64_t admitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t max_outstanding = 0;
};

/// Drives `streams` logical streams of `windows_per_stream` windows each
/// through one shared FleetFrontend, submit/poll interleaved round-robin --
/// the well-behaved multi-tenant driver loop.
FleetRun run_fleet(const std::shared_ptr<const core::HierarchicalDisassembler>& model,
                   const sim::TraceSet& pool, std::size_t streams,
                   std::size_t windows_per_stream, const runtime::FleetConfig& cfg) {
  runtime::FleetFrontend fleet(model, cfg);
  std::vector<runtime::FleetFrontend::StreamId> ids;
  ids.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) ids.push_back(fleet.open_stream());

  FleetRun run;
  std::vector<std::uint64_t> next_seq(streams, 0);
  const auto account = [&](std::size_t s, const runtime::FleetResult& r) {
    if (r.stream_sequence != next_seq[s]) run.in_order = false;
    ++next_seq[s];
    ++run.delivered;
  };

  const Clock::time_point t0 = Clock::now();
  for (std::size_t w = 0; w < windows_per_stream; ++w) {
    for (std::size_t s = 0; s < streams; ++s) {
      const sim::Trace& trace = pool[(s * 7 + w) % pool.size()];
      for (;;) {
        if (fleet.submit(ids[s], trace).accepted()) break;
        // Credit exhausted: free it by taking delivery on this stream.
        while (auto r = fleet.poll(ids[s])) account(s, *r);
        std::this_thread::yield();
      }
      if (auto r = fleet.poll(ids[s])) account(s, *r);
    }
  }
  for (std::size_t s = 0; s < streams; ++s) {
    for (runtime::FleetResult& r : fleet.close_stream(ids[s])) account(s, r);
  }
  run.wall_secs = seconds_since(t0);

  const std::size_t total = streams * windows_per_stream;
  run.windows_per_sec = static_cast<double>(total) / run.wall_secs;
  const runtime::FleetStats stats = fleet.stats();
  run.p50_us =
      static_cast<double>(stats.admit_to_deliver.quantile_upper_nanos(0.50)) / 1e3;
  run.p99_us =
      static_cast<double>(stats.admit_to_deliver.quantile_upper_nanos(0.99)) / 1e3;
  run.batches = stats.runtime.batches_submitted;
  run.coalescing = run.batches == 0
                       ? 0.0
                       : static_cast<double>(stats.runtime.traces_submitted) /
                             static_cast<double>(run.batches);
  if (stats.windows_shed != 0 || stats.windows_rejected != 0) run.in_order = false;
  run.windows_per_batch = stats.runtime.windows_per_batch.summary_counts();
  run.batch_win = stats.runtime.batch_classified_windows;
  run.scalar_win = stats.runtime.scalar_classified_windows;
  run.batch_ns_per_win =
      run.batch_win == 0 ? 0.0
                         : static_cast<double>(stats.runtime.batch_classify_nanos) /
                               static_cast<double>(run.batch_win);
  run.scalar_ns_per_win =
      run.scalar_win == 0 ? 0.0
                          : static_cast<double>(stats.runtime.scalar_classify_nanos) /
                                static_cast<double>(run.scalar_win);
  return run;
}

/// The deployment the fleet replaces: one dedicated one-stream fleet per
/// device (dedicated_config), all alive at once, fed the same interleaved
/// window arrivals the fleet sees.  Every stream's worker thread wakes for
/// its own windows -- with a thousand devices that is a thousand mostly-idle
/// threads and a context switch per few windows, which is exactly the
/// overhead shard sharing exists to remove.
BaselineRun run_dedicated(
    const std::shared_ptr<const core::HierarchicalDisassembler>& model,
    const sim::TraceSet& pool, std::size_t streams, std::size_t windows_per_stream) {
  BaselineRun run;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::unique_ptr<runtime::FleetFrontend>> fleets;
  std::vector<runtime::FleetFrontend::StreamId> ids;
  fleets.reserve(streams);
  ids.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    fleets.push_back(std::make_unique<runtime::FleetFrontend>(model, dedicated_config()));
    ids.push_back(fleets.back()->open_stream());
  }
  for (std::size_t w = 0; w < windows_per_stream; ++w) {
    for (std::size_t s = 0; s < streams; ++s) {
      fleets[s]->submit(ids[s], pool[(s * 7 + w) % pool.size()]);
      while (fleets[s]->poll(ids[s])) {
      }
    }
  }
  for (std::size_t s = 0; s < streams; ++s) fleets[s]->close_stream(ids[s]);
  run.wall_secs = seconds_since(t0);
  run.windows_per_sec =
      static_cast<double>(streams * windows_per_stream) / run.wall_secs;
  return run;
}

/// Offline reference: `driver_threads` dedicated one-stream fleets, each
/// running its share of devices' windows SEQUENTIALLY through its one
/// stream.  No real deployment can do this -- live windows arrive
/// interleaved across devices, not one device at a time -- so this is a
/// work-conserving upper bound on the same worker count, not a serving
/// alternative.
BaselineRun run_pooled(const std::shared_ptr<const core::HierarchicalDisassembler>& model,
                       const sim::TraceSet& pool, std::size_t streams,
                       std::size_t windows_per_stream,
                       std::size_t driver_threads) {
  BaselineRun run;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(driver_threads);
  for (std::size_t d = 0; d < driver_threads; ++d) {
    drivers.emplace_back([&, d] {
      runtime::FleetFrontend fleet(model, dedicated_config());
      const auto id = fleet.open_stream();
      for (std::size_t s = d; s < streams; s += driver_threads) {
        for (std::size_t w = 0; w < windows_per_stream; ++w) {
          fleet.submit(id, pool[(s * 7 + w) % pool.size()]);
          while (fleet.poll(id)) {
          }
        }
      }
      fleet.close_stream(id);
    });
  }
  for (std::thread& t : drivers) t.join();
  run.wall_secs = seconds_since(t0);
  run.windows_per_sec =
      static_cast<double>(streams * windows_per_stream) / run.wall_secs;
  return run;
}

/// Alternated fleet/dedicated legs of one run.  The reported pair is the one
/// at the median per-pair speedup, so speedup_vs_dedicated is a same-run
/// ratio that one cold or noisy leg cannot move.
struct Comparison {
  FleetRun fleet;                ///< the median pair's fleet leg
  BaselineRun dedicated;         ///< the median pair's dedicated leg
  std::vector<double> speedups;  ///< each pair's fleet/dedicated ratio, in leg order
  bool all_delivered = true;     ///< every fleet leg delivered everything, in order
};

Comparison compare(const std::shared_ptr<const core::HierarchicalDisassembler>& model,
                   const sim::TraceSet& pool, std::size_t streams,
                   std::size_t windows_per_stream, const runtime::FleetConfig& cfg,
                   std::size_t legs) {
  // Untimed warm-up of both deployments: the first leg of a process pays
  // page faults, thread-stack and allocator-arena setup the others do not.
  run_fleet(model, pool, streams, windows_per_stream, cfg);
  run_dedicated(model, pool, streams, windows_per_stream);

  Comparison cmp;
  std::vector<FleetRun> fleets;
  std::vector<BaselineRun> dedicateds;
  for (std::size_t leg = 0; leg < legs; ++leg) {
    fleets.push_back(run_fleet(model, pool, streams, windows_per_stream, cfg));
    dedicateds.push_back(run_dedicated(model, pool, streams, windows_per_stream));
    cmp.all_delivered = cmp.all_delivered && fleets.back().in_order &&
                        fleets.back().delivered == streams * windows_per_stream;
    cmp.speedups.push_back(fleets.back().windows_per_sec /
                           dedicateds.back().windows_per_sec);
  }
  std::vector<std::size_t> order(legs);
  for (std::size_t i = 0; i < legs; ++i) order[i] = i;
  std::nth_element(order.begin(), order.begin() + legs / 2, order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cmp.speedups[a] < cmp.speedups[b];
                   });
  cmp.fleet = fleets[order[legs / 2]];
  cmp.dedicated = dedicateds[order[legs / 2]];
  return cmp;
}

/// Over-admission scenario: a burst of `burst` windows into one stream with
/// tiny credit and a wedged-slow shard, under `policy`.  Returns the ledger.
ShedRun run_shed(const std::shared_ptr<const core::HierarchicalDisassembler>& model,
                 const sim::TraceSet& pool, runtime::AdmissionPolicy policy,
                 std::size_t burst) {
  runtime::FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.batch_max = 2;
  cfg.shard_depth = 2;
  cfg.stream_credit = 8;
  cfg.admission = policy;
  runtime::FleetFrontend fleet(model, cfg);
  const auto id = fleet.open_stream();

  ShedRun run;
  run.credit = cfg.stream_credit;
  for (std::size_t i = 0; i < burst; ++i) {
    fleet.submit(id, pool[i % pool.size()]);
    const runtime::StreamStats ss = fleet.stream_stats(id);
    run.max_outstanding = std::max(run.max_outstanding, ss.outstanding);
  }
  run.delivered = fleet.close_stream(id).size();
  const runtime::FleetStats stats = fleet.stats();
  run.admitted = stats.windows_admitted;
  run.shed = stats.windows_shed;
  run.rejected = stats.windows_rejected;
  return run;
}

void write_json(const std::string& path, std::size_t streams,
                std::size_t windows_per_stream, const runtime::FleetConfig& cfg,
                const Comparison& cmp, const BaselineRun& pooled,
                const ShedRun& shed, const ShedRun& reject) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const FleetRun& fleet = cmp.fleet;
  const BaselineRun& dedicated = cmp.dedicated;
  const double speedup = fleet.windows_per_sec / dedicated.windows_per_sec;
  const bool faster = fleet.windows_per_sec > dedicated.windows_per_sec;
  const bool shed_bounded = shed.max_outstanding <= shed.credit &&
                            shed.admitted == shed.delivered + shed.shed &&
                            reject.max_outstanding <= reject.credit &&
                            reject.shed == 0 &&
                            reject.admitted == reject.delivered;
  std::fprintf(f, "{\n  \"bench\": \"fleet\",\n");
  std::fprintf(f,
               "  \"config\": {\"streams\": %zu, \"windows_per_stream\": %zu, "
               "\"shards\": %zu, \"workers_per_shard\": %zu, \"batch_max\": %zu, "
               "\"stream_credit\": %zu},\n",
               streams, windows_per_stream, cfg.shards, cfg.workers_per_shard,
               cfg.batch_max, cfg.stream_credit);
  std::fprintf(f,
               "  \"fleet\": {\"windows_per_sec\": %.1f, \"wall_secs\": %.3f, "
               "\"p50_us\": %.1f, \"p99_us\": %.1f,\n            \"batches\": %llu, "
               "\"coalescing\": %.2f, \"delivered\": %llu,\n            "
               "\"batch_windows_classified\": %llu, \"batch_ns_per_window\": %.0f,\n"
               "            \"scalar_windows_classified\": %llu, "
               "\"scalar_ns_per_window\": %.0f,\n            "
               "\"criterion_delivery_accounting\": %s},\n",
               fleet.windows_per_sec, fleet.wall_secs, fleet.p50_us, fleet.p99_us,
               static_cast<unsigned long long>(fleet.batches), fleet.coalescing,
               static_cast<unsigned long long>(fleet.delivered),
               static_cast<unsigned long long>(fleet.batch_win),
               fleet.batch_ns_per_win,
               static_cast<unsigned long long>(fleet.scalar_win),
               fleet.scalar_ns_per_win,
               cmp.all_delivered ? "true" : "false");
  std::fprintf(f,
               "  \"dedicated\": {\"windows_per_sec\": %.1f, \"wall_secs\": %.3f},\n",
               dedicated.windows_per_sec, dedicated.wall_secs);
  std::fprintf(f,
               "  \"pooled_reference\": {\"windows_per_sec\": %.1f, "
               "\"wall_secs\": %.3f},\n",
               pooled.windows_per_sec, pooled.wall_secs);
  std::fprintf(f,
               "  \"comparison\": {\"speedup_vs_dedicated\": %.2f, "
               "\"leg_speedups\": [",
               speedup);
  for (std::size_t i = 0; i < cmp.speedups.size(); ++i) {
    std::fprintf(f, "%s%.2f", i == 0 ? "" : ", ", cmp.speedups[i]);
  }
  std::fprintf(f,
               "],\n                 "
               "\"criterion_fleet_faster_than_independent\": %s},\n",
               faster ? "true" : "false");
  std::fprintf(
      f,
      "  \"shedding\": {\"shed_oldest\": {\"admitted\": %llu, \"delivered\": %llu, "
      "\"shed\": %llu, \"rejected\": %llu, \"max_outstanding\": %llu},\n"
      "               \"reject_new\": {\"admitted\": %llu, \"delivered\": %llu, "
      "\"shed\": %llu, \"rejected\": %llu, \"max_outstanding\": %llu},\n"
      "               \"stream_credit\": %zu, \"criterion_shed_bounded_credit\": %s}\n",
      static_cast<unsigned long long>(shed.admitted),
      static_cast<unsigned long long>(shed.delivered),
      static_cast<unsigned long long>(shed.shed),
      static_cast<unsigned long long>(shed.rejected),
      static_cast<unsigned long long>(shed.max_outstanding),
      static_cast<unsigned long long>(reject.admitted),
      static_cast<unsigned long long>(reject.delivered),
      static_cast<unsigned long long>(reject.shed),
      static_cast<unsigned long long>(reject.rejected),
      static_cast<unsigned long long>(reject.max_outstanding), shed.credit,
      shed_bounded ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main() {
  bench::print_header("Fleet serving -- shared shards vs a fleet per device");
  std::printf("  host reports %u hardware thread(s)\n",
              std::thread::hardware_concurrency());
  std::mt19937_64 rng(static_cast<std::uint64_t>(bench::env_int("SIDIS_SEED", 54)));
  const sim::AcquisitionCampaign campaign(sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0));

  // Model scale mirrors bench_runtime_throughput: per-window classify cost
  // has to be realistic for the batching amortization to mean anything (a
  // toy model costs less than the bookkeeping either deployment adds).
  const auto g1 = avr::classes_in_group(1);
  const std::size_t n_classes = bench::fast_mode() ? 3 : 6;
  core::ProfilingData data;
  for (std::size_t i = 0; i < n_classes; ++i) {
    data.classes[g1[i]] =
        campaign.capture_class(g1[i], bench::fast_mode() ? 40 : 80, 10, rng);
  }
  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.pipeline.pca_components = 40;
  cfg.group_components = 20;
  cfg.instruction_components = 40;
  cfg.factory.discriminant.shrinkage = 0.15;
  std::printf("  training a %zu-class hierarchical model...\n", n_classes);
  const auto model = std::make_shared<const core::HierarchicalDisassembler>(
      core::HierarchicalDisassembler::train(data, cfg));

  // Window pool the streams draw from (capture once, serve many).
  const std::size_t pool_size = bench::fast_mode() ? 32 : 64;
  sim::TraceSet pool;
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(campaign.capture_trace(
        avr::random_instance(g1[i % n_classes], rng),
        sim::ProgramContext::make(static_cast<int>(i % 10)), rng));
  }

  const std::size_t streams = static_cast<std::size_t>(
      bench::env_int("SIDIS_FLEET_STREAMS", bench::fast_mode() ? 200 : 1200));
  const std::size_t windows_per_stream = static_cast<std::size_t>(
      bench::env_int("SIDIS_FLEET_WINDOWS", bench::fast_mode() ? 6 : 20));

  runtime::FleetConfig fcfg;
  fcfg.shards = 4;
  fcfg.workers_per_shard = 2;
  fcfg.batch_max = 16;
  fcfg.stream_credit = 32;
  const std::size_t total_workers = fcfg.shards * fcfg.workers_per_shard;

  std::printf("\n  load: %zu streams x %zu windows = %zu classifications\n", streams,
              windows_per_stream, streams * windows_per_stream);
  std::printf("  fleet: %zu shards x %zu workers, batch_max %zu, credit %zu\n",
              fcfg.shards, fcfg.workers_per_shard, fcfg.batch_max, fcfg.stream_credit);

  const std::size_t legs = bench::fast_mode() ? 3 : 7;
  const Comparison cmp =
      compare(model, pool, streams, windows_per_stream, fcfg, legs);
  const FleetRun& fleet = cmp.fleet;
  const BaselineRun& dedicated = cmp.dedicated;
  std::printf("\n  %zu alternated fleet/dedicated legs after a warm-up; the "
              "median-speedup pair:\n",
              legs);
  std::printf(
      "  fleet frontend:      %10.1f windows/sec  (wall %.2fs, p50 %.0fus, "
      "p99 %.0fus)\n",
      fleet.windows_per_sec, fleet.wall_secs, fleet.p50_us, fleet.p99_us);
  std::printf("    %llu batches, coalescing factor %.2f windows/batch, "
              "delivery %s\n",
              static_cast<unsigned long long>(fleet.batches), fleet.coalescing,
              cmp.all_delivered ? "complete and in order" : "BROKEN");
  std::printf("    amortization: batch path %llu windows @ %.0fns/win, "
              "scalar path %llu windows @ %.0fns/win\n",
              static_cast<unsigned long long>(fleet.batch_win),
              fleet.batch_ns_per_win,
              static_cast<unsigned long long>(fleet.scalar_win),
              fleet.scalar_ns_per_win);
  // windows/batch samples only passes of two or more windows; the scalar
  // path's share is the windows that ran one per pass.
  std::printf("    single-window share: %.1f%% of classified windows\n",
              fleet.batch_win + fleet.scalar_win == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(fleet.scalar_win) /
                        static_cast<double>(fleet.batch_win + fleet.scalar_win));
  std::printf("    windows/batched pass: %s\n", fleet.windows_per_batch.c_str());

  std::printf("  dedicated fleets:    %10.1f windows/sec  (wall %.2fs, %zu "
              "one-worker fleets live at once)\n",
              dedicated.windows_per_sec, dedicated.wall_secs, streams);
  std::printf("  fleet speedup: %.2fx over fleet-per-device, with %zu workers "
              "instead of %zu (per leg:",
              fleet.windows_per_sec / dedicated.windows_per_sec, total_workers,
              streams);
  for (const double r : cmp.speedups) std::printf(" %.2fx", r);
  std::printf(")\n");

  const BaselineRun pooled =
      run_pooled(model, pool, streams, windows_per_stream, total_workers);
  std::printf("  pooled reference:    %10.1f windows/sec  (offline upper "
              "bound: %zu one-stream fleets, devices run sequentially)\n",
              pooled.windows_per_sec, total_workers);

  const ShedRun shed = run_shed(model, pool, runtime::AdmissionPolicy::kShedOldest,
                                bench::fast_mode() ? 64 : 256);
  const ShedRun reject = run_shed(model, pool, runtime::AdmissionPolicy::kRejectNew,
                                  bench::fast_mode() ? 64 : 256);
  std::printf("\n  over-admission burst (credit 8):\n");
  std::printf("    shed-oldest: admitted %llu, delivered %llu, shed %llu, "
              "max outstanding %llu\n",
              static_cast<unsigned long long>(shed.admitted),
              static_cast<unsigned long long>(shed.delivered),
              static_cast<unsigned long long>(shed.shed),
              static_cast<unsigned long long>(shed.max_outstanding));
  std::printf("    reject-new:  admitted %llu, delivered %llu, rejected %llu, "
              "max outstanding %llu\n",
              static_cast<unsigned long long>(reject.admitted),
              static_cast<unsigned long long>(reject.delivered),
              static_cast<unsigned long long>(reject.rejected),
              static_cast<unsigned long long>(reject.max_outstanding));

  const char* out = std::getenv("SIDIS_BENCH_OUT");
  write_json(out != nullptr && *out != '\0' ? out : "BENCH_fleet.json", streams,
             windows_per_stream, fcfg, cmp, pooled, shed, reject);
  return 0;
}
