// Streaming-runtime scaling: traces/sec through runtime::StreamingDisassembler
// at 1/2/4/8 workers vs. the serial core::disassemble baseline on the same
// trace set -- the serving-layer counterpart of bench_throughput's per-stage
// microbenchmarks (Sec. 5.4's real-time argument).
//
// Besides throughput, the bench asserts the property that makes parallel
// serving legitimate at all: the streamed listing is byte-identical to the
// serial one at every worker count.  SIDIS_RUNTIME_TRACES overrides the
// stream length, SIDIS_FAST=1 shrinks everything.
#include "bench/common.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/disassembler.hpp"
#include "core/hierarchical.hpp"
#include "runtime/streaming.hpp"

using namespace sidis;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
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
  const auto model = core::HierarchicalDisassembler::train(data, cfg);

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
  const std::vector<core::Disassembly> serial = core::disassemble(model, windows);
  const double serial_secs = seconds_since(t0);
  const std::string golden = core::listing(serial);
  const double serial_rate = static_cast<double>(n_traces) / serial_secs;
  std::printf("\n  %zu traces, serial core::disassemble: %8.1f traces/sec\n", n_traces,
              serial_rate);

  std::printf("\n  %-9s %-14s %-10s %-12s %s\n", "workers", "traces/sec", "speedup",
              "vs serial", "output");
  double rate1 = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    runtime::StreamingConfig scfg;
    scfg.workers = workers;
    scfg.max_in_flight = 64;
    runtime::StreamingDisassembler engine(model, scfg);

    const Clock::time_point ts = Clock::now();
    std::vector<core::Disassembly> streamed;
    streamed.reserve(n_traces);
    for (const sim::Trace& t : windows) {
      engine.submit(t);
      while (auto r = engine.poll()) streamed.push_back(std::move(r->value));
    }
    for (auto& r : engine.drain()) streamed.push_back(std::move(r.value));
    const double secs = seconds_since(ts);

    const double rate = static_cast<double>(n_traces) / secs;
    if (workers == 1) rate1 = rate;
    const bool identical = core::listing(streamed) == golden;
    std::printf("  %-9zu %10.1f %8.2fx %10.2fx   %s\n", workers, rate, rate / rate1,
                rate / serial_rate, identical ? "byte-identical" : "MISMATCH");
    if (workers == 4) {
      const runtime::RuntimeStats stats = engine.stats();
      std::printf("\n  stats @ 4 workers:\n%s\n", stats.report().c_str());
    }
  }
  std::printf(
      "  (speedup is relative to the 1-worker engine; 'vs serial' includes the\n"
      "   queue/reorder overhead.  Scaling requires physical cores: on a\n"
      "   single-core host every configuration collapses to ~1x.)\n");

  // Batched submission: the same stream coalesced into submit_batch calls at
  // fixed worker count.  One worker runs each batch through classify_batch
  // (one feature-extraction workspace amortized over the whole batch), so
  // per-window overhead drops even before parallelism enters -- this is the
  // amortization the fleet frontend's shard dispatcher rides on.
  std::printf("\n  batched submission @ 4 workers (vs per-window submit):\n");
  std::printf("  %-12s %-14s %-10s %s\n", "batch size", "traces/sec", "speedup",
              "output");
  double per_window_rate = 0.0;
  for (const std::size_t batch : {1u, 4u, 16u, 64u}) {
    runtime::StreamingConfig scfg;
    scfg.workers = 4;
    scfg.max_in_flight = 64;
    runtime::StreamingDisassembler engine(model, scfg);

    const Clock::time_point ts = Clock::now();
    std::vector<core::Disassembly> streamed;
    streamed.reserve(n_traces);
    for (std::size_t i = 0; i < n_traces; i += batch) {
      const std::size_t n = std::min(batch, n_traces - i);
      if (batch == 1) {
        engine.submit(windows[i]);
      } else {
        engine.submit_batch(
            sim::TraceSet(windows.begin() + static_cast<std::ptrdiff_t>(i),
                          windows.begin() + static_cast<std::ptrdiff_t>(i + n)));
      }
      while (auto r = engine.poll()) streamed.push_back(std::move(r->value));
    }
    for (auto& r : engine.drain()) streamed.push_back(std::move(r.value));
    const double secs = seconds_since(ts);

    const double rate = static_cast<double>(n_traces) / secs;
    if (batch == 1) per_window_rate = rate;
    const bool identical = core::listing(streamed) == golden;
    std::printf("  %-12zu %10.1f %8.2fx   %s\n", batch, rate, rate / per_window_rate,
                identical ? "byte-identical" : "MISMATCH");
  }
  std::printf(
      "  (classify_batch is bit-identical to per-window classify, so the\n"
      "   batched listing must match byte-for-byte at every batch size.)\n");
  return 0;
}
