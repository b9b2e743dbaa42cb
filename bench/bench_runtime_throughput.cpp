// Serving-layer scaling: traces/sec through one stream of a one-shard
// runtime::FleetFrontend at 1/2/4/8 workers, and at batch_max 1/4/16/64,
// vs. the serial core::disassemble baseline on the same trace set -- the
// serving-layer counterpart of bench_throughput's per-stage microbenchmarks
// (Sec. 5.4's real-time argument).
//
// Besides throughput, the bench asserts the property that makes parallel
// serving legitimate at all: the streamed listing is byte-identical to the
// serial one in every configuration; any MISMATCH row makes it exit 1.
// SIDIS_RUNTIME_TRACES overrides the stream length, SIDIS_FAST=1 shrinks
// everything.
#include "bench/common.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/disassembler.hpp"
#include "core/hierarchical.hpp"
#include "runtime/fleet.hpp"

using namespace sidis;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Served {
  double rate = 0.0;  ///< traces/sec, submit of the first to delivery of the last
  std::string listing;
  runtime::RuntimeStats stats;
};

/// Streams `windows` through one blocking stream of a one-shard fleet,
/// polling after every submit -- the single-monitor deployment.
Served serve(const std::shared_ptr<const core::HierarchicalDisassembler>& model,
             const sim::TraceSet& windows, std::size_t workers,
             std::size_t batch_max) {
  runtime::FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = workers;
  cfg.batch_max = batch_max;
  cfg.stream_credit = 64;
  cfg.admission = runtime::AdmissionPolicy::kBlock;
  runtime::FleetFrontend fleet(model, cfg);
  const auto id = fleet.open_stream();

  const Clock::time_point ts = Clock::now();
  std::vector<core::Disassembly> streamed;
  streamed.reserve(windows.size());
  for (const sim::Trace& t : windows) {
    fleet.submit(id, t);
    while (auto r = fleet.poll(id)) streamed.push_back(std::move(r->value));
  }
  for (auto& r : fleet.close_stream(id)) streamed.push_back(std::move(r.value));
  Served out;
  out.rate = static_cast<double>(windows.size()) / seconds_since(ts);
  out.listing = core::listing(streamed);
  out.stats = fleet.stats().runtime;
  return out;
}

}  // namespace

int main() {
  bench::print_header("Runtime scaling -- streaming disassembly throughput");
  std::printf("  host reports %u hardware thread(s)\n",
              std::thread::hardware_concurrency());
  std::mt19937_64 rng(static_cast<std::uint64_t>(bench::env_int("SIDIS_SEED", 54)));
  const sim::AcquisitionCampaign campaign(sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0));

  // Model scale mirrors bench_throughput's fixture: six group-1 classes.
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

  // The stream under test: unseen windows of the profiled classes.
  const std::size_t n_traces = static_cast<std::size_t>(
      bench::env_int("SIDIS_RUNTIME_TRACES", bench::fast_mode() ? 200 : 1000));
  sim::TraceSet windows;
  for (std::size_t i = 0; i < n_traces; ++i) {
    windows.push_back(campaign.capture_trace(
        avr::random_instance(g1[i % n_classes], rng),
        sim::ProgramContext::make(static_cast<int>(i % 10)), rng));
  }

  // Serial baseline (and the golden listing for the identity check).
  const Clock::time_point t0 = Clock::now();
  const std::vector<core::Disassembly> serial = core::disassemble(*model, windows);
  const double serial_secs = seconds_since(t0);
  const std::string golden = core::listing(serial);
  const double serial_rate = static_cast<double>(n_traces) / serial_secs;
  std::printf("\n  %zu traces, serial core::disassemble: %8.1f traces/sec\n", n_traces,
              serial_rate);

  bool all_identical = true;
  std::printf("\n  one-shard fleet, one blocking stream (batch_max 16):\n");
  std::printf("  %-9s %-14s %-10s %-12s %s\n", "workers", "traces/sec", "speedup",
              "vs serial", "output");
  double rate1 = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const Served run = serve(model, windows, workers, 16);
    if (workers == 1) rate1 = run.rate;
    const bool identical = run.listing == golden;
    all_identical = all_identical && identical;
    std::printf("  %-9zu %10.1f %8.2fx %10.2fx   %s\n", workers, run.rate,
                run.rate / rate1, run.rate / serial_rate,
                identical ? "byte-identical" : "MISMATCH");
    if (workers == 4) {
      std::printf("\n  stats @ 4 workers:\n%s\n", run.stats.report().c_str());
    }
  }
  std::printf(
      "  (speedup is relative to 1 worker; 'vs serial' includes the admission,\n"
      "   dispatch and reorder overhead.  Scaling requires physical cores: on a\n"
      "   single-core host every configuration collapses to ~1x.)\n");

  // Coalescing: the same stream at fixed worker count, with the dispatcher
  // allowed to pack up to batch_max pending windows into one classify_batch
  // pass (one feature-extraction workspace amortized over the batch).  The
  // dispatcher only holds windows back while every worker is busy, so the
  // realized batch width is reported beside the cap.
  std::printf("\n  coalescing @ 4 workers (vs batch_max 1):\n");
  std::printf("  %-12s %-14s %-10s %-14s %s\n", "batch_max", "traces/sec", "speedup",
              "windows/pass", "output");
  double per_window_rate = 0.0;
  for (const std::size_t batch_max : {1u, 4u, 16u, 64u}) {
    const Served run = serve(model, windows, 4, batch_max);
    if (batch_max == 1) per_window_rate = run.rate;
    const bool identical = run.listing == golden;
    all_identical = all_identical && identical;
    std::printf("  %-12zu %10.1f %8.2fx %12.1f   %s\n", batch_max, run.rate,
                run.rate / per_window_rate,
                static_cast<double>(run.stats.traces_submitted) /
                    static_cast<double>(run.stats.batches_submitted),
                identical ? "byte-identical" : "MISMATCH");
  }
  std::printf(
      "  (classify_batch is bit-identical to per-window classify, so the\n"
      "   served listing must match byte-for-byte at every batch width.)\n");
  return all_identical ? 0 : 1;
}
