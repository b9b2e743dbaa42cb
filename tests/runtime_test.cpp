// Tests for the runtime's building blocks: the parallel_for contract, served
// output equal to serial disassembly, the model registry's round-trip and
// corruption rejection, and worker-count invariance of the parallel
// profiler.  The serving contracts themselves live in fleet_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>

#include "core/csa.hpp"
#include "core/disassembler.hpp"
#include "core/profiler.hpp"
#include "runtime/fleet.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/registry.hpp"
#include "sim/acquisition.hpp"

namespace sidis::runtime {
namespace {

using namespace std::chrono_literals;

// -- parallel_for ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  // A throwing index still leaves every other index run exactly once, and
  // the throw reaches the caller after the join, at every worker count.
  for (const std::size_t workers : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(16);
    EXPECT_THROW(parallel_for(hits.size(), workers,
                              [&](std::size_t i) {
                                ++hits[i];
                                if (i == 7) throw std::runtime_error("boom");
                              }),
                 std::runtime_error)
        << "workers=" << workers;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " index " << i;
    }
  }
  // An empty range runs nothing and throws nothing.
  EXPECT_NO_THROW(parallel_for(0, 4, [](std::size_t) { throw std::runtime_error("ran"); }));
  // workers = 0 resolves to the hardware concurrency and covers every index.
  std::vector<std::atomic<int>> hits(100);
  parallel_for(hits.size(), 0, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// -- end-to-end against the real model --------------------------------------

class RuntimeModelFixture : public ::testing::Test {
 protected:
  static const core::HierarchicalDisassembler& model() { return *shared_model(); }

  static std::shared_ptr<const core::HierarchicalDisassembler> shared_model() {
    static const auto m = std::make_shared<const core::HierarchicalDisassembler>([] {
      sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
      std::mt19937_64 rng{17};
      core::ProfilingData data;
      for (avr::Mnemonic mn :
           {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kCom}) {
        data.classes[*avr::class_index(mn)] =
            campaign.capture_class(*avr::class_index(mn), 50, 5, rng);
      }
      core::HierarchicalConfig cfg;
      cfg.pipeline = core::csa_config();
      cfg.pipeline.pca_components = 10;
      cfg.group_components = 8;
      cfg.instruction_components = 8;
      return core::HierarchicalDisassembler::train(data, cfg);
    }());
    return m;
  }

  static sim::TraceSet probes(std::size_t n) {
    sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                      sim::SessionContext::make(0)};
    std::mt19937_64 rng{23};
    sim::TraceSet out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(campaign.capture_trace(
          avr::random_instance(*avr::class_index(avr::Mnemonic::kAdd), rng),
          sim::ProgramContext::make(static_cast<int>(i % 4)), rng));
    }
    return out;
  }
};

TEST_F(RuntimeModelFixture, StreamingMatchesSerialDisassemblyExactly) {
  const sim::TraceSet windows = probes(40);
  const std::vector<core::Disassembly> serial = core::disassemble(model(), windows);

  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 4;
  cfg.stream_credit = 8;
  cfg.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(shared_model(), cfg);
  const auto id = fleet.open_stream();
  for (const sim::Trace& t : windows) ASSERT_TRUE(fleet.submit(id, t).accepted());
  const std::vector<FleetResult> streamed = fleet.close_stream(id);

  ASSERT_EQ(streamed.size(), serial.size());
  std::vector<core::Disassembly> values;
  for (const FleetResult& r : streamed) values.push_back(r.value);
  EXPECT_EQ(core::listing(values), core::listing(serial))
      << "parallel streaming changed the disassembly output";
}

// -- ModelRegistry -----------------------------------------------------------

class RegistryFixture : public RuntimeModelFixture {
 protected:
  std::filesystem::path fresh_root(const std::string& tag) {
    const auto root =
        std::filesystem::path(::testing::TempDir()) / ("sidis_registry_" + tag);
    std::filesystem::remove_all(root);
    return root;
  }
};

TEST_F(RegistryFixture, RoundTripPredictsIdentically) {
  ModelRegistry registry(fresh_root("roundtrip"));
  EXPECT_EQ(registry.latest_version("monitor"), 0);
  EXPECT_EQ(registry.save("monitor", model()), 1);
  EXPECT_EQ(registry.save("monitor", model()), 2);
  EXPECT_EQ(registry.versions("monitor"), (std::vector<int>{1, 2}));
  EXPECT_EQ(registry.names(), std::vector<std::string>{"monitor"});

  const core::HierarchicalDisassembler restored = registry.load("monitor");
  for (const sim::Trace& t : probes(20)) {
    const core::Disassembly a = model().classify(t);
    const core::Disassembly b = restored.classify(t);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.class_idx, b.class_idx);
  }

  const ArtifactInfo info = registry.info("monitor", 2);
  EXPECT_EQ(info.name, "monitor");
  EXPECT_EQ(info.version, 2);
  EXPECT_GT(info.payload_bytes, 0u);
}

TEST_F(RegistryFixture, RejectsCorruptedAndTruncatedArtifacts) {
  ModelRegistry registry(fresh_root("corrupt"));
  ASSERT_EQ(registry.save("victim", model()), 1);
  const std::filesystem::path path = registry.info("victim", 1).path;

  // Flip one payload byte: checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0, std::ios::end);
    const auto size = f.tellp();
    f.seekp(size - std::streamoff(10));
    f.put('!');
  }
  EXPECT_THROW(registry.load("victim", 1), std::runtime_error);

  // Truncate: payload shorter than the header promises.
  ASSERT_EQ(registry.save("victim", model()), 2);
  const std::filesystem::path p2 = registry.info("victim", 2).path;
  std::filesystem::resize_file(p2, std::filesystem::file_size(p2) / 2);
  EXPECT_THROW(registry.load("victim", 2), std::runtime_error);

  // Garbage header.
  ASSERT_EQ(registry.save("victim", model()), 3);
  {
    std::ofstream f(registry.info("victim", 3).path, std::ios::trunc);
    f << "not-a-bundle at all\n";
  }
  EXPECT_THROW(registry.load("victim", 3), std::runtime_error);
}

TEST_F(RegistryFixture, RejectsBadNamesAndMissingModels) {
  ModelRegistry registry(fresh_root("names"));
  EXPECT_THROW(registry.save("", model()), std::invalid_argument);
  EXPECT_THROW(registry.save("../escape", model()), std::invalid_argument);
  EXPECT_THROW(registry.save("a/b", model()), std::invalid_argument);
  EXPECT_THROW(registry.load("never-stored"), std::runtime_error);
  EXPECT_TRUE(registry.versions("never-stored").empty());
}

// -- parallel profiler -------------------------------------------------------

TEST(ParallelProfiler, CorpusIsWorkerCountInvariant) {
  const sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0)};
  core::ProfilerConfig cfg;
  cfg.classes = {*avr::class_index(avr::Mnemonic::kAdd),
                 *avr::class_index(avr::Mnemonic::kSub),
                 *avr::class_index(avr::Mnemonic::kLdi)};
  cfg.registers = {2, 30};
  cfg.traces_per_class = 10;
  cfg.traces_per_register = 6;
  cfg.num_programs = 2;

  const auto run = [&](std::size_t workers) {
    cfg.workers = workers;
    std::mt19937_64 rng{5};
    return core::profile_device(campaign, cfg, rng);
  };
  const core::ProfilingData serial = run(1);
  const core::ProfilingData parallel = run(4);

  ASSERT_EQ(serial.classes.size(), parallel.classes.size());
  for (const auto& [cls, traces] : serial.classes) {
    const sim::TraceSet& other = parallel.classes.at(cls);
    ASSERT_EQ(traces.size(), other.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      EXPECT_EQ(traces[i].samples, other[i].samples)
          << "class " << cls << " trace " << i << " differs with 4 workers";
    }
  }
  for (const auto& [reg, traces] : serial.rd_classes) {
    ASSERT_EQ(traces.size(), parallel.rd_classes.at(reg).size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      EXPECT_EQ(traces[i].samples, parallel.rd_classes.at(reg)[i].samples);
    }
  }
}

TEST(ParallelProfiler, ProgressSerializedAndAbortStillWorks) {
  const sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0)};
  core::ProfilerConfig cfg;
  cfg.classes = {*avr::class_index(avr::Mnemonic::kAdd),
                 *avr::class_index(avr::Mnemonic::kSub)};
  cfg.profile_registers = false;
  cfg.traces_per_class = 4;
  cfg.num_programs = 2;
  cfg.workers = 4;

  std::atomic<int> concurrent{0};
  std::size_t calls = 0;
  std::mt19937_64 rng{6};
  core::profile_device(campaign, cfg, rng,
                       [&](std::size_t done, std::size_t total, const std::string&) {
                         EXPECT_EQ(concurrent.fetch_add(1), 0)
                             << "progress callback ran concurrently";
                         std::this_thread::sleep_for(5ms);
                         --concurrent;
                         ++calls;
                         EXPECT_LE(done, total);
                         return true;
                       });
  EXPECT_EQ(calls, 2u);

  std::mt19937_64 rng2{6};
  EXPECT_THROW(core::profile_device(campaign, cfg, rng2,
                                    [](std::size_t, std::size_t, const std::string&) {
                                      return false;
                                    }),
               std::runtime_error);
}

}  // namespace
}  // namespace sidis::runtime
