// Production-shaped deployment tour of the src/runtime serving layer:
//
//   1. profile the training device with the PARALLEL campaign profiler
//      (worker pool, per-item RNG streams -- same corpus at any core count);
//   2. train the hierarchical disassembler and publish it into a versioned
//      ModelRegistry bundle (checksummed, atomically written);
//   3. on the "monitor" side, load the bundle back by name and stream live
//      per-instruction trace windows through one stream of a one-shard
//      FleetFrontend -- blocking credit, worker pool, in-order results, a
//      drift monitor -- as a real-time monitor would;
//   4. print the recovered listing and the fleet's latency telemetry.
#include <cstdio>
#include <filesystem>
#include <random>

#include "avr/assembler.hpp"
#include "core/csa.hpp"
#include "core/disassembler.hpp"
#include "core/profiler.hpp"
#include "runtime/fleet.hpp"
#include "runtime/registry.hpp"
#include "sim/acquisition.hpp"

using namespace sidis;

int main() {
  std::mt19937_64 rng(77);
  const sim::AcquisitionCampaign campaign(sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0));

  // -- 1. profiling campaign, parallelized over the worker pool -------------
  const avr::Program firmware = avr::assemble(
                                    "SBI 5, 5     ; sync + gain reference\n"
                                    "NOP\n"
                                    "LDI r16, 0x3A\n"
                                    "LDI r17, 0x5C\n"
                                    "MOV r2, r16\n"
                                    "EOR r16, r17\n"
                                    "ADD r2, r17\n"
                                    "AND r3, r17\n"
                                    "CBI 5, 5\n")
                                    .program;
  core::ProfilerConfig pc;
  pc.classes = {*avr::class_index(avr::Mnemonic::kLdi),
                *avr::class_index(avr::Mnemonic::kMov),
                *avr::class_index(avr::Mnemonic::kEor),
                *avr::class_index(avr::Mnemonic::kAdd),
                *avr::class_index(avr::Mnemonic::kAnd)};
  pc.traces_per_class = 120;
  pc.profile_registers = false;
  pc.workers = 0;  // hardware concurrency
  std::printf("profiling %zu instruction classes in parallel...\n", pc.classes.size());
  const core::ProfilingData data = core::profile_device(
      campaign, pc, rng, [](std::size_t done, std::size_t total, const std::string& item) {
        std::printf("  [%zu/%zu] %s\n", done, total, item.c_str());
        return true;
      });

  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.pipeline.pca_components = 24;
  cfg.group_components = 16;
  cfg.instruction_components = 24;
  cfg.factory.discriminant.shrinkage = 0.15;
  const auto trained = core::HierarchicalDisassembler::train(data, cfg);

  // -- 2. publish the trained model as a deployable artifact ----------------
  runtime::ModelRegistry registry(std::filesystem::temp_directory_path() /
                                  "sidis_registry_demo");
  const int version = registry.save("firmware-monitor", trained);
  const runtime::ArtifactInfo info = registry.info("firmware-monitor", version);
  std::printf("\npublished bundle 'firmware-monitor' v%d (%llu bytes, fnv1a %016llx)\n",
              version, static_cast<unsigned long long>(info.payload_bytes),
              static_cast<unsigned long long>(info.checksum));

  // -- 3. monitor side: load by name, stream live windows -------------------
  const auto model = std::make_shared<const core::HierarchicalDisassembler>(
      registry.load("firmware-monitor"));  // latest version
  runtime::FleetConfig fcfg;
  fcfg.shards = 1;
  fcfg.workers_per_shard = 0;  // hardware concurrency
  fcfg.stream_credit = 32;
  fcfg.admission = runtime::AdmissionPolicy::kBlock;
  runtime::FleetFrontend fleet(model, fcfg);
  // The stream watches its own acquisition chain for drift: the monitor
  // folds the features the classify walk already projected.
  runtime::StreamOptions options;
  options.monitor_drift = true;
  const auto monitor = fleet.open_stream(options);

  std::printf("\nstreaming 20 executions of the monitored firmware...\n");
  std::vector<core::Disassembly> recovered;
  for (int rep = 0; rep < 20; ++rep) {
    const sim::TraceSet windows =
        campaign.capture_program(firmware, sim::ProgramContext::make(300), rng);
    for (const sim::Trace& t : windows) fleet.submit(monitor, t);
    while (auto r = fleet.poll(monitor)) recovered.push_back(std::move(r->value));
  }
  for (auto& r : fleet.close_stream(monitor)) recovered.push_back(std::move(r.value));

  const std::size_t per_exec = recovered.size() / 20;
  std::printf("\nrecovered stream (first execution, %zu windows):\n", per_exec);
  for (std::size_t i = 0; i < per_exec; ++i) {
    std::printf("  %2zu: %s\n", i, recovered[i].text().c_str());
  }

  // -- 4. runtime telemetry -------------------------------------------------
  std::printf("\n%s", fleet.stats().report().c_str());
  return 0;
}
