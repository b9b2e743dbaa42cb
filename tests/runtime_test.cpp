// Tests for the streaming disassembly runtime: queue backpressure, ordered
// output under adversarial completion order, cancellation without loss, the
// model registry's round-trip and corruption rejection, and worker-count
// invariance of the parallel profiler.
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
#include "runtime/bounded_queue.hpp"
#include "runtime/registry.hpp"
#include "runtime/streaming.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/acquisition.hpp"

namespace sidis::runtime {
namespace {

using namespace std::chrono_literals;

// -- BoundedQueue ------------------------------------------------------------

TEST(BoundedQueue, FifoAndHighWater) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.high_water(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), i);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.high_water(), 5u);  // sticky
}

TEST(BoundedQueue, BackpressureBlocksProducerAtCapacity) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(0));
  ASSERT_TRUE(q.push(1));
  EXPECT_FALSE(q.try_push(2));  // full

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);  // must block until a pop makes room
    pushed.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(pushed.load()) << "push() returned while the queue was full";
  EXPECT_EQ(q.pop(), 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(4);
  q.push(7);
  q.push(8);
  q.close();
  EXPECT_FALSE(q.push(9));          // rejected after close
  EXPECT_EQ(q.pop(), 7);            // backlog still poppable
  EXPECT_EQ(q.pop(), 8);
  EXPECT_EQ(q.pop(), std::nullopt);  // closed + empty
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(20ms);
  q.close();
  consumer.join();
}

// -- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, RunsAllSubmittedJobs) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(3, 4);
    for (int i = 1; i <= 100; ++i) {
      EXPECT_TRUE(pool.submit([&sum, i] { sum += i; }));
    }
  }  // destructor = shutdown barrier
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(parallel_for(16, 3,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

// -- StreamingDisassembler ---------------------------------------------------

/// Classify stage that encodes the sequence into the result and sleeps an
/// adversarial, order-inverting amount (early traces finish last).
ClassifyFn adversarial_classify(std::atomic<int>* calls) {
  return [calls](const sim::Trace& t) {
    const auto tag = static_cast<std::size_t>(t.meta.program_id);
    std::this_thread::sleep_for(std::chrono::microseconds(500 * ((tag % 7 == 0) ? 20 : (7 - tag % 7))));
    if (calls != nullptr) ++*calls;
    core::Disassembly d;
    d.class_idx = tag;
    return d;
  };
}

sim::Trace tagged_trace(std::size_t tag) {
  sim::Trace t;
  t.samples = {0.0};
  t.meta.program_id = static_cast<int>(tag);
  return t;
}

TEST(Streaming, OrderedOutputUnderAdversarialDelays) {
  StreamingConfig cfg;
  cfg.workers = 4;
  cfg.max_in_flight = 8;
  StreamingDisassembler engine(adversarial_classify(nullptr), cfg);

  constexpr std::size_t kTraces = 64;
  std::vector<StreamResult> got;
  for (std::size_t i = 0; i < kTraces; ++i) {
    const auto seq = engine.submit(tagged_trace(i));
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(*seq, i);
    while (auto r = engine.poll()) got.push_back(std::move(*r));  // interleave
  }
  for (auto& r : engine.drain()) got.push_back(std::move(r));

  ASSERT_EQ(got.size(), kTraces);
  for (std::size_t i = 0; i < kTraces; ++i) {
    EXPECT_EQ(got[i].sequence, i) << "results emitted out of submission order";
    EXPECT_EQ(got[i].value.class_idx, i) << "result does not answer its own trace";
  }
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.traces_submitted, kTraces);
  EXPECT_EQ(stats.traces_completed, kTraces);
  EXPECT_EQ(stats.traces_emitted, kTraces);
  EXPECT_EQ(stats.traces_failed, 0u);
  EXPECT_EQ(stats.end_to_end.count(), kTraces);
}

TEST(Streaming, ExpectedAcquisitionStampIsEnforcedAtSubmit) {
  // A monitor pinned to one acquisition configuration must refuse windows
  // captured under another: rate, resolution and window length are all part
  // of the contract, and a refused submission consumes no sequence number.
  const sim::AcquisitionConfig acq = sim::AcquisitionConfig::half_rate();
  StreamingConfig cfg;
  cfg.workers = 1;
  cfg.expected_acquisition = acq;
  StreamingDisassembler engine(
      [](const sim::Trace&) { return core::Disassembly{}; }, cfg);

  sim::Trace good;
  good.samples.assign(acq.window_samples(), 0.0);
  good.meta.samples_per_cycle = acq.samples_per_cycle;
  good.meta.adc_bits = acq.adc_bits;
  ASSERT_TRUE(engine.submit(good).has_value());

  sim::Trace wrong_rate = good;
  wrong_rate.meta.samples_per_cycle = sim::kNominalSamplesPerCycle;
  EXPECT_THROW((void)engine.submit(wrong_rate), std::invalid_argument);

  sim::Trace wrong_bits = good;
  wrong_bits.meta.adc_bits = 6;
  EXPECT_THROW((void)engine.submit(wrong_bits), std::invalid_argument);

  sim::Trace wrong_window = good;
  wrong_window.samples.push_back(0.0);
  EXPECT_THROW((void)engine.submit(wrong_window), std::invalid_argument);

  // One mismatched window poisons a whole batch before it reserves anything.
  sim::TraceSet batch;
  batch.push_back(good);
  batch.push_back(wrong_bits);
  EXPECT_THROW((void)engine.submit_batch(std::move(batch)), std::invalid_argument);

  (void)engine.drain();
  EXPECT_EQ(engine.stats().traces_submitted, 1u)
      << "rejected submissions must not consume sequence numbers";
}

TEST(Streaming, CampaignStampsSatisfyTheMatchingExpectation) {
  // Traces from an acquisition-configured campaign carry the stamp the
  // runtime validates against, so the contract holds end-to-end by default.
  const sim::AcquisitionConfig acq = sim::AcquisitionConfig::low_resolution(6);
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0), acq};
  std::mt19937_64 rng{29};
  const sim::TraceSet windows = campaign.capture_class(
      *avr::class_index(avr::Mnemonic::kAdd), 3, 2, rng);

  StreamingConfig cfg;
  cfg.workers = 1;
  cfg.expected_acquisition = acq;
  StreamingDisassembler engine(
      [](const sim::Trace&) { return core::Disassembly{}; }, cfg);
  for (const sim::Trace& t : windows) ASSERT_TRUE(engine.submit(t).has_value());
  EXPECT_EQ(engine.drain().size(), windows.size());
}

TEST(Streaming, BackpressureBlocksProducerAtCapacity) {
  StreamingConfig cfg;
  cfg.workers = 1;
  cfg.max_in_flight = 3;
  std::atomic<bool> release{false};
  StreamingDisassembler engine(
      [&release](const sim::Trace&) {
        while (!release.load()) std::this_thread::sleep_for(1ms);
        return core::Disassembly{};
      },
      cfg);

  std::atomic<std::size_t> accepted{0};
  std::thread producer([&] {
    for (std::size_t i = 0; i < 6; ++i) {
      if (engine.submit(tagged_trace(i))) ++accepted;
    }
  });
  std::this_thread::sleep_for(100ms);
  // Worker holds trace 0; traces 1-2 fill in-flight credit (max 3): the
  // producer must be blocked inside submit() for trace 3.
  EXPECT_EQ(accepted.load(), 3u) << "submit() did not block at max_in_flight";
  release.store(true);
  std::vector<StreamResult> tail;
  // Consume so the producer can finish (it unblocks as results are emitted).
  while (tail.size() < 6) {
    if (auto r = engine.poll()) {
      tail.push_back(std::move(*r));
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  producer.join();
  EXPECT_EQ(accepted.load(), 6u);
  for (std::size_t i = 0; i < tail.size(); ++i) EXPECT_EQ(tail[i].sequence, i);
}

TEST(Streaming, DrainAfterCancelLosesAndDuplicatesNothing) {
  StreamingConfig cfg;
  cfg.workers = 3;
  cfg.max_in_flight = 4;
  StreamingDisassembler engine(adversarial_classify(nullptr), cfg);

  std::vector<StreamResult> got;
  std::atomic<std::uint64_t> last_accepted{0};
  std::thread producer([&] {
    for (std::size_t i = 0;; ++i) {
      const auto seq = engine.submit(tagged_trace(i));
      if (!seq) break;  // cancelled
      last_accepted.store(*seq);
    }
  });
  std::this_thread::sleep_for(60ms);
  engine.request_stop();  // cancel mid-stream; producer unblocks and exits
  producer.join();
  EXPECT_FALSE(engine.submit(tagged_trace(9999)).has_value());

  for (auto& r : engine.drain()) got.push_back(std::move(r));
  const std::uint64_t accepted_count = last_accepted.load() + 1;
  ASSERT_EQ(got.size(), accepted_count)
      << "drain() lost or duplicated accepted traces";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sequence, i);
    EXPECT_EQ(got[i].value.class_idx, i);
  }
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.traces_submitted, accepted_count);
  EXPECT_EQ(stats.traces_emitted, accepted_count);
}

TEST(Streaming, StopTokenCancelsSubmission) {
  std::stop_source source;
  StreamingConfig cfg;
  cfg.workers = 1;
  StreamingDisassembler engine([](const sim::Trace&) { return core::Disassembly{}; },
                               cfg, source.get_token());
  ASSERT_TRUE(engine.submit(tagged_trace(0)).has_value());
  source.request_stop();
  EXPECT_TRUE(engine.stopped());
  EXPECT_FALSE(engine.submit(tagged_trace(1)).has_value());
  EXPECT_EQ(engine.drain().size(), 1u);
}

TEST(Streaming, WorkerExceptionEmitsDefaultResultAndCounts) {
  StreamingConfig cfg;
  cfg.workers = 2;
  StreamingDisassembler engine(
      [](const sim::Trace& t) -> core::Disassembly {
        if (t.meta.program_id == 1) throw std::runtime_error("model blew up");
        core::Disassembly d;
        d.class_idx = 42;
        return d;
      },
      cfg);
  for (std::size_t i = 0; i < 3; ++i) ASSERT_TRUE(engine.submit(tagged_trace(i)));
  const std::vector<StreamResult> out = engine.drain();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value.class_idx, 42u);
  EXPECT_EQ(out[1].value.class_idx, 0u);  // default-constructed placeholder
  EXPECT_EQ(out[2].value.class_idx, 42u);
  EXPECT_EQ(engine.stats().traces_failed, 1u);
}

TEST(Streaming, VerdictAndFaultCountersAggregate) {
  StreamingConfig cfg;
  cfg.workers = 2;
  // Stub model: program_id selects the verdict, so the expected counter
  // values are exact.  Faulted windows are marked by their ground-truth
  // severity stamp, which the engine reads off TraceMeta.
  StreamingDisassembler engine(
      [](const sim::Trace& t) {
        core::Disassembly d;
        if (t.meta.program_id % 3 == 1) d.verdict = core::Verdict::kRejected;
        if (t.meta.program_id % 3 == 2) d.verdict = core::Verdict::kDegraded;
        return d;
      },
      cfg);
  for (std::size_t i = 0; i < 9; ++i) {
    sim::Trace t = tagged_trace(i);
    if (i < 4) t.meta.fault_severity = 0.5 * static_cast<double>(i + 1);
    ASSERT_TRUE(engine.submit(std::move(t)));
  }
  (void)engine.drain();
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.traces_rejected, 3u);   // ids 1, 4, 7
  EXPECT_EQ(stats.traces_degraded, 3u);   // ids 2, 5, 8
  EXPECT_EQ(stats.traces_faulted, 4u);
  EXPECT_DOUBLE_EQ(stats.fault_severity_sum, 0.5 + 1.0 + 1.5 + 2.0);
  EXPECT_DOUBLE_EQ(stats.max_fault_severity, 2.0);
  const std::string report = stats.report();
  EXPECT_NE(report.find("rejected=3"), std::string::npos);
  EXPECT_NE(report.find("faulted: 4 windows"), std::string::npos);
}

TEST(Streaming, SwapStampStaysCoherentWithItsStageUnderConcurrentSwaps) {
  // Regression test for a checksum/stage race: the result stamp used to be
  // read separately from the stage function, so a result classified by
  // version k could report the stamp of a concurrently published k+1.  The
  // fix pins (function, stamp) as one shared stage record.  Here every stage
  // k tags its results with class_idx = k and is published with stamp = k,
  // so any tearing shows up as a stamp/class mismatch -- and TSan (this test
  // runs in the TSan CI job too) would flag the unsynchronized read.
  StreamingConfig cfg;
  cfg.workers = 4;
  cfg.max_in_flight = 8;
  auto stage_fn = [](std::uint64_t k) {
    return [k](const sim::Trace&) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      core::Disassembly d;
      d.class_idx = static_cast<std::size_t>(k);
      return d;
    };
  };
  StreamingDisassembler engine(stage_fn(0), cfg);

  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    for (std::uint64_t k = 1; !stop_swapping.load(); ++k) {
      engine.swap_classifier(stage_fn(k), k);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  constexpr std::size_t kTraces = 300;
  std::size_t checked = 0;
  std::size_t distinct_stamps = 0;
  std::uint64_t last_stamp = 0;
  for (std::size_t i = 0; i < kTraces; ++i) {
    ASSERT_TRUE(engine.submit(tagged_trace(i)).has_value());
    while (auto r = engine.poll()) {
      EXPECT_EQ(r->value.class_idx, r->model_stamp)
          << "result " << r->sequence << " stamped with a different stage";
      if (r->model_stamp != last_stamp) ++distinct_stamps;
      last_stamp = r->model_stamp;
      ++checked;
    }
  }
  for (auto& r : engine.drain()) {
    EXPECT_EQ(r.value.class_idx, r.model_stamp)
        << "result " << r.sequence << " stamped with a different stage";
    if (r.model_stamp != last_stamp) ++distinct_stamps;
    last_stamp = r.model_stamp;
    ++checked;
  }
  stop_swapping.store(true);
  swapper.join();
  EXPECT_EQ(checked, kTraces);
  // The race window only exists when swaps actually interleave with work.
  // (distinct_stamps counts emission-order stamp *changes*, which can exceed
  // the swap count: neighboring jobs may pin stages in either order.)
  EXPECT_GE(distinct_stamps, 2u) << "swaps never interleaved; test proved nothing";
  EXPECT_GE(engine.stats().model_swaps, 2u);
}

// -- end-to-end against the real model --------------------------------------

class RuntimeModelFixture : public ::testing::Test {
 protected:
  static const core::HierarchicalDisassembler& model() {
    static const core::HierarchicalDisassembler m = [] {
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
    }();
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

  StreamingConfig cfg;
  cfg.workers = 4;
  cfg.max_in_flight = 8;
  StreamingDisassembler engine(model(), cfg);
  for (const sim::Trace& t : windows) ASSERT_TRUE(engine.submit(t).has_value());
  const std::vector<StreamResult> streamed = engine.drain();

  ASSERT_EQ(streamed.size(), serial.size());
  std::vector<core::Disassembly> values;
  for (const StreamResult& r : streamed) values.push_back(r.value);
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
