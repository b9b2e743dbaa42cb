// Fleet frontend battery: multi-tenant stream routing over shared shards.
//
// Contracts pinned here: per-stream in-order delivery under adversarial
// completion order, bit-identical results at any shard worker count (batch
// grouping is a scheduling accident, classification is not), admission
// control accounting (delivered + shed == admitted, both policies),
// per-stream drift-monitor isolation, registry-resolved model sharing with
// coherent result stamps and a "latest" pin that later saves never move,
// and actual coalescing into multi-window stage calls.  The one-stream section pins what a single live monitor
// relies on: the blocking credit, cancellation by close_stream, hot swaps
// that never reach windows admitted before them, and the acquisition-stamp
// check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "avr/grouping.hpp"
#include "avr/isa.hpp"
#include "core/csa.hpp"
#include "core/sequence.hpp"
#include "runtime/fleet.hpp"
#include "runtime/registry.hpp"
#include "sim/acquisition.hpp"

namespace sidis::runtime {
namespace {

using namespace std::chrono_literals;

// -- stub-stage helpers ------------------------------------------------------

sim::Trace tagged_trace(int tag) {
  sim::Trace t;
  t.samples = {0.0};
  t.meta.program_id = tag;
  return t;
}

/// Stage that runs `fn` on each window of a job in turn, stamped `stamp`
/// (a throw fails the whole job, like any stage's).
StageRef per_window_stage(std::function<core::Disassembly(const sim::Trace&)> fn,
                          std::uint64_t stamp = 0) {
  return std::make_shared<const Stage>(Stage{
      [fn = std::move(fn)](std::span<const sim::Trace> ts) {
        std::vector<core::Disassembly> out;
        out.reserve(ts.size());
        for (const sim::Trace& t : ts) out.push_back(fn(t));
        return out;
      },
      stamp});
}

/// Stage that echoes the window's tag into class_idx after an adversarial,
/// order-inverting delay -- late submissions finish first.
StageRef echo_stage() {
  return per_window_stage([](const sim::Trace& t) {
    const auto tag = static_cast<std::size_t>(t.meta.program_id);
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (7 - tag % 7)));
    core::Disassembly d;
    d.class_idx = tag;
    return d;
  });
}

/// Stage that blocks every classification until `release` flips -- lets a
/// test wedge the shard's workers and exercise admission control on a
/// backlog that cannot drain.
StageRef gated_stage(std::atomic<bool>* release) {
  return per_window_stage([release](const sim::Trace& t) {
    while (!release->load()) std::this_thread::sleep_for(1ms);
    core::Disassembly d;
    d.class_idx = static_cast<std::size_t>(t.meta.program_id);
    return d;
  });
}

// -- model fixture -----------------------------------------------------------

class FleetModelFixture : public ::testing::Test {
 protected:
  /// One trained 3-class model with training moments and armed reject
  /// gates, shared across the suite.
  static std::shared_ptr<const core::HierarchicalDisassembler> model() {
    static const std::shared_ptr<const core::HierarchicalDisassembler> m = [] {
      sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
      std::mt19937_64 rng{41};
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
      auto trained = std::make_shared<core::HierarchicalDisassembler>(
          core::HierarchicalDisassembler::train(data, cfg));
      trained->calibrate_reject(data, core::RejectOperatingPoint::kMonitoring);
      return std::static_pointer_cast<const core::HierarchicalDisassembler>(trained);
    }();
    return m;
  }

  /// `n` windows with classes rotating over the profiled set, captured on
  /// `campaign` at fixed drift `progress`.
  static sim::TraceSet windows_on(const sim::AcquisitionCampaign& campaign,
                                  std::size_t n, std::uint64_t seed,
                                  double progress) {
    static const std::vector<std::size_t> classes = {
        *avr::class_index(avr::Mnemonic::kAdd),
        *avr::class_index(avr::Mnemonic::kLdi),
        *avr::class_index(avr::Mnemonic::kCom)};
    std::mt19937_64 rng{seed};
    sim::TraceSet out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(campaign.capture_trace(
          avr::random_instance(classes[i % classes.size()], rng, {}),
          sim::ProgramContext::make(static_cast<int>(i % 4)), rng, progress));
    }
    return out;
  }

  static sim::TraceSet clean_windows(std::size_t n, std::uint64_t seed) {
    sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                   sim::SessionContext::make(0)};
    return windows_on(clean, n, seed, 0.0);
  }

  /// Admits `trace`, polling the stream's ready queue to free credit when
  /// the submit is refused -- the well-behaved tenant loop.
  static void submit_pumping(FleetFrontend& fleet, FleetFrontend::StreamId id,
                             const sim::Trace& trace,
                             std::vector<FleetResult>* delivered) {
    for (;;) {
      const AdmitResult r = fleet.submit(id, trace);
      if (r.accepted()) return;
      ASSERT_EQ(r.status, AdmitStatus::kRejected);
      bool drained = false;
      while (auto polled = fleet.poll(id)) {
        if (delivered != nullptr) delivered->push_back(std::move(*polled));
        drained = true;
      }
      if (!drained) std::this_thread::yield();
    }
  }
};

/// A prior over the fixture's classes with an ADD -> LDI -> COM cadence.
std::shared_ptr<const core::TransitionPrior> cadence_prior() {
  auto prior = std::make_shared<core::BigramPrior>(avr::num_instruction_classes());
  const std::size_t add = *avr::class_index(avr::Mnemonic::kAdd);
  const std::size_t ldi = *avr::class_index(avr::Mnemonic::kLdi);
  const std::size_t com = *avr::class_index(avr::Mnemonic::kCom);
  for (int i = 0; i < 20; ++i) {
    prior->add_transition(add, ldi);
    prior->add_transition(ldi, com);
    prior->add_transition(com, add);
  }
  return prior;
}

/// Checks a closed decode_sequence stream's delivery, window for window,
/// against `model`'s classify_batch_scored over `windows` fed through a bare
/// SequenceDecoder with the same prior.
void expect_decoded_like_reference(const std::vector<FleetResult>& got,
                                   const core::HierarchicalDisassembler& model,
                                   const sim::TraceSet& windows,
                                   std::shared_ptr<const core::TransitionPrior> prior) {
  SequenceDecoder decoder(model.posterior_classes(), std::move(prior));
  std::vector<SmoothedWindow> want;
  for (core::Disassembly& d : model.classify_batch_scored(windows)) {
    decoder.push(std::move(d));
    while (auto w = decoder.poll()) want.push_back(std::move(*w));
  }
  for (SmoothedWindow& w : decoder.flush()) want.push_back(std::move(w));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream_sequence, i);
    EXPECT_EQ(got[i].value.class_idx, want[i].value.class_idx) << "window " << i;
    EXPECT_EQ(got[i].value.verdict, want[i].value.verdict) << "window " << i;
    EXPECT_EQ(got[i].value.margin_headroom, want[i].value.margin_headroom)
        << "window " << i;
    EXPECT_EQ(got[i].smoothed, want[i].smoothed) << "window " << i;
    EXPECT_EQ(got[i].sequence_confidence, want[i].confidence) << "window " << i;
  }
}

// -- multi-stream ordering ---------------------------------------------------

TEST(Fleet, PerStreamDeliveryIsInOrderUnderAdversarialCompletion) {
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.batch_max = 4;
  cfg.stream_credit = 16;
  FleetFrontend fleet(echo_stage(), cfg);

  constexpr std::size_t kStreams = 6;
  constexpr int kWindows = 12;
  std::vector<FleetFrontend::StreamId> ids;
  for (std::size_t s = 0; s < kStreams; ++s) ids.push_back(fleet.open_stream());

  // Interleave submissions across streams so shard queues genuinely mix
  // tenants; every admit must hand out this stream's next sequence.
  for (int i = 0; i < kWindows; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      const AdmitResult r =
          fleet.submit(ids[s], tagged_trace(static_cast<int>(s) * 100 + i));
      ASSERT_TRUE(r.accepted());
      EXPECT_EQ(r.stream_sequence, static_cast<std::uint64_t>(i));
    }
  }

  for (std::size_t s = 0; s < kStreams; ++s) {
    std::vector<FleetResult> got;
    while (auto r = fleet.poll(ids[s])) got.push_back(std::move(*r));
    for (FleetResult& r : fleet.close_stream(ids[s])) got.push_back(std::move(r));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kWindows)) << "stream " << s;
    for (int i = 0; i < kWindows; ++i) {
      EXPECT_EQ(got[i].stream_sequence, static_cast<std::uint64_t>(i))
          << "stream " << s << " delivered out of order";
      EXPECT_EQ(got[i].value.class_idx, s * 100 + static_cast<std::size_t>(i))
          << "stream " << s << " got another stream's result";
    }
  }

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.streams_opened, kStreams);
  EXPECT_EQ(stats.streams_closed, kStreams);
  EXPECT_EQ(stats.streams_live, 0u);
  EXPECT_EQ(stats.windows_admitted, kStreams * kWindows);
  EXPECT_EQ(stats.windows_delivered, kStreams * kWindows);
  EXPECT_EQ(stats.windows_shed, 0u);
  EXPECT_EQ(stats.windows_rejected, 0u);
  EXPECT_EQ(stats.admit_to_deliver.count(), kStreams * kWindows);

  // Closed handles are dead: submits refuse, close is idempotent.
  EXPECT_EQ(fleet.submit(ids[0], tagged_trace(0)).status, AdmitStatus::kClosed);
  EXPECT_TRUE(fleet.close_stream(ids[0]).empty());
  EXPECT_FALSE(fleet.poll(ids[0]).has_value());
}

// -- worker-count invariance -------------------------------------------------

TEST_F(FleetModelFixture, ResultsAreBitIdenticalAcrossShardWorkerCounts) {
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kWindows = 10;
  std::vector<sim::TraceSet> per_stream;
  for (std::size_t s = 0; s < kStreams; ++s) {
    per_stream.push_back(clean_windows(kWindows, 0x1000 + s));
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("workers_per_shard=" + std::to_string(workers));
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.workers_per_shard = workers;
    cfg.batch_max = 4;
    cfg.stream_credit = 16;
    FleetFrontend fleet(model(), cfg);

    std::vector<FleetFrontend::StreamId> ids;
    for (std::size_t s = 0; s < kStreams; ++s) ids.push_back(fleet.open_stream());
    for (std::size_t i = 0; i < kWindows; ++i) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        ASSERT_TRUE(fleet.submit(ids[s], per_stream[s][i]).accepted());
      }
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      std::vector<FleetResult> got;
      while (auto r = fleet.poll(ids[s])) got.push_back(std::move(*r));
      for (FleetResult& r : fleet.close_stream(ids[s])) got.push_back(std::move(r));
      ASSERT_EQ(got.size(), kWindows);
      // Batch grouping depends on worker timing; the results must not.  The
      // reference is the serial per-window classify -- agreeing with it at
      // every worker count proves both correctness and invariance.
      for (std::size_t i = 0; i < kWindows; ++i) {
        const core::Disassembly serial = model()->classify(per_stream[s][i]);
        ASSERT_EQ(got[i].stream_sequence, i);
        EXPECT_EQ(got[i].value.group, serial.group);
        EXPECT_EQ(got[i].value.class_idx, serial.class_idx);
        EXPECT_EQ(got[i].value.verdict, serial.verdict);
        EXPECT_EQ(got[i].value.margin_headroom, serial.margin_headroom);
        EXPECT_EQ(got[i].value.score_headroom, serial.score_headroom);
        EXPECT_EQ(got[i].model_stamp, 0u);  // default stage is unstamped
      }
    }
  }
}

// -- admission control -------------------------------------------------------

TEST(Fleet, ShedOldestReclaimsCreditAndTheLedgerCloses) {
  std::atomic<bool> release{false};
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.batch_max = 1;
  cfg.shard_depth = 1;  // one window with the workers, the rest stays pending
  cfg.stream_credit = 4;
  cfg.admission = AdmissionPolicy::kShedOldest;
  FleetFrontend fleet(gated_stage(&release), cfg);
  const auto id = fleet.open_stream();

  constexpr int kSubmits = 20;
  std::size_t accepted = 0, shed_admits = 0;
  for (int i = 0; i < kSubmits; ++i) {
    const AdmitResult r = fleet.submit(id, tagged_trace(i));
    ASSERT_TRUE(r.accepted()) << "shed-oldest refused window " << i;
    ++accepted;
    if (r.status == AdmitStatus::kAcceptedShedOldest) ++shed_admits;
  }
  // Credit 4: the first 4 admits are clean, every later one sheds an older
  // window to make room.
  EXPECT_EQ(accepted, static_cast<std::size_t>(kSubmits));
  EXPECT_EQ(shed_admits, static_cast<std::size_t>(kSubmits) - cfg.stream_credit);

  StreamStats mid = fleet.stream_stats(id);
  EXPECT_EQ(mid.windows_admitted, static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(mid.windows_shed, static_cast<std::uint64_t>(kSubmits) - cfg.stream_credit);
  EXPECT_EQ(mid.outstanding, cfg.stream_credit);

  release.store(true);
  std::vector<FleetResult> got;
  while (got.size() < cfg.stream_credit) {
    if (auto r = fleet.poll(id)) {
      got.push_back(std::move(*r));
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  // Ledger: every admitted window is exactly one of delivered / shed, and
  // the survivors arrive in (gappy but ascending) sequence order.  The
  // window with the workers was never sheddable, so sequence 0 survived.
  EXPECT_EQ(got.front().stream_sequence, 0u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_GT(got[i].stream_sequence, got[i - 1].stream_sequence);
  }
  const StreamStats fin = fleet.stream_stats(id);
  EXPECT_EQ(fin.windows_delivered + fin.windows_shed, fin.windows_admitted);
  EXPECT_EQ(fin.outstanding, 0u);

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.windows_shed, fin.windows_shed);
  EXPECT_EQ(stats.runtime.windows_shed, fin.windows_shed)
      << "frontend shed count not mirrored into the runtime record";
}

TEST(Fleet, RejectNewRefusesOverCreditAndPreservesTheBacklog) {
  std::atomic<bool> release{false};
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.batch_max = 1;
  cfg.shard_depth = 1;
  cfg.stream_credit = 4;
  cfg.admission = AdmissionPolicy::kRejectNew;
  FleetFrontend fleet(gated_stage(&release), cfg);
  const auto id = fleet.open_stream();

  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 20; ++i) {
    const AdmitResult r = fleet.submit(id, tagged_trace(i));
    if (r.accepted()) {
      ++accepted;
      EXPECT_EQ(r.status, AdmitStatus::kAccepted) << "reject-new must never shed";
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, cfg.stream_credit);
  EXPECT_EQ(rejected, 20u - cfg.stream_credit);

  release.store(true);
  const std::vector<FleetResult> tail = fleet.close_stream(id);
  std::size_t delivered = tail.size();
  // The accepted backlog survives intact and in order: sequences 0..3.
  ASSERT_EQ(delivered, accepted);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].stream_sequence, i);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.windows_rejected, 20u - cfg.stream_credit);
  EXPECT_EQ(stats.runtime.windows_rejected, stats.windows_rejected);
  EXPECT_EQ(stats.windows_shed, 0u);
}

// -- coalescing --------------------------------------------------------------

TEST(Fleet, BackloggedStreamsCoalesceIntoMultiWindowBatches) {
  std::atomic<bool> release{false};
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.batch_max = 8;
  cfg.shard_depth = 8;
  cfg.stream_credit = 32;
  FleetFrontend fleet(gated_stage(&release), cfg);

  constexpr std::size_t kStreams = 8;
  constexpr int kWindows = 20;
  std::vector<FleetFrontend::StreamId> ids;
  for (std::size_t s = 0; s < kStreams; ++s) ids.push_back(fleet.open_stream());
  // Wedge the worker so pending windows pile up behind the first dispatches,
  // then release: the dispatcher must drain the backlog through coalesced
  // batches, one window per stream per batch (fairness).
  for (int i = 0; i < kWindows; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(
          fleet.submit(ids[s], tagged_trace(static_cast<int>(s) * 1000 + i))
              .accepted());
    }
  }
  release.store(true);

  std::size_t total = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    std::vector<FleetResult> got;
    while (auto r = fleet.poll(ids[s])) got.push_back(std::move(*r));
    for (FleetResult& r : fleet.close_stream(ids[s])) got.push_back(std::move(r));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kWindows));
    for (int i = 0; i < kWindows; ++i) {
      EXPECT_EQ(got[i].value.class_idx, s * 1000 + static_cast<std::size_t>(i));
    }
    total += got.size();
  }
  EXPECT_EQ(total, kStreams * kWindows);

  const RuntimeStats rt = fleet.stats().runtime;
  EXPECT_EQ(rt.traces_submitted, kStreams * kWindows);
  ASSERT_GT(rt.batches_submitted, 0u);
  const double coalescing = static_cast<double>(rt.traces_submitted) /
                            static_cast<double>(rt.batches_submitted);
  EXPECT_GT(coalescing, 1.5)
      << "a wedged shard with 8 backlogged streams should produce "
         "multi-window batches, got factor "
      << coalescing;
}

// -- one-stream serving -------------------------------------------------------
//
// A single live monitor (the paper's Sec. 5.4 deployment) is a one-shard
// fleet with one blocking stream.

/// One shard whose streams block at `credit` unclassified windows.
FleetConfig one_stream(std::size_t workers, std::size_t credit) {
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = workers;
  cfg.stream_credit = credit;
  cfg.admission = AdmissionPolicy::kBlock;
  return cfg;
}

TEST(Streaming, OrderedOutputUnderAdversarialDelays) {
  FleetFrontend fleet(echo_stage(), one_stream(4, 8));
  const auto id = fleet.open_stream();

  constexpr std::size_t kTraces = 64;
  std::vector<FleetResult> got;
  for (std::size_t i = 0; i < kTraces; ++i) {
    const AdmitResult a = fleet.submit(id, tagged_trace(static_cast<int>(i)));
    ASSERT_EQ(a.status, AdmitStatus::kAccepted);
    EXPECT_EQ(a.stream_sequence, i);
    while (auto r = fleet.poll(id)) got.push_back(std::move(*r));  // interleave
  }
  for (FleetResult& r : fleet.close_stream(id)) got.push_back(std::move(r));

  ASSERT_EQ(got.size(), kTraces);
  for (std::size_t i = 0; i < kTraces; ++i) {
    EXPECT_EQ(got[i].stream_sequence, i) << "results emitted out of submission order";
    EXPECT_EQ(got[i].value.class_idx, i) << "result does not answer its own trace";
  }
  const RuntimeStats stats = fleet.stats().runtime;
  EXPECT_EQ(stats.traces_submitted, kTraces);
  EXPECT_EQ(stats.traces_completed, kTraces);
  EXPECT_EQ(stats.traces_emitted, kTraces);
  EXPECT_EQ(stats.traces_failed, 0u);
  EXPECT_EQ(stats.end_to_end.count(), kTraces);
  EXPECT_LE(stats.in_flight_high_water, 8u) << "the blocking credit was overrun";
}

TEST(Streaming, ExpectedAcquisitionStampIsEnforcedAtSubmit) {
  // A monitor pinned to one acquisition configuration must refuse windows
  // captured under another: rate, resolution and window length are all part
  // of the contract, and a refused submission consumes no sequence number.
  const sim::AcquisitionConfig acq = sim::AcquisitionConfig::half_rate();
  FleetFrontend fleet(per_window_stage([](const sim::Trace&) { return core::Disassembly{}; }),
                      one_stream(1, 8));
  StreamOptions opts;
  opts.expected_acquisition = acq;
  const auto id = fleet.open_stream(opts);

  sim::Trace good;
  good.samples.assign(acq.window_samples(), 0.0);
  good.meta.samples_per_cycle = acq.samples_per_cycle;
  good.meta.adc_bits = acq.adc_bits;
  ASSERT_TRUE(fleet.submit(id, good).accepted());

  sim::Trace wrong_rate = good;
  wrong_rate.meta.samples_per_cycle = sim::kNominalSamplesPerCycle;
  EXPECT_THROW((void)fleet.submit(id, wrong_rate), std::invalid_argument);

  sim::Trace wrong_bits = good;
  wrong_bits.meta.adc_bits = 6;
  EXPECT_THROW((void)fleet.submit(id, wrong_bits), std::invalid_argument);

  sim::Trace wrong_window = good;
  wrong_window.samples.push_back(0.0);
  EXPECT_THROW((void)fleet.submit(id, wrong_window), std::invalid_argument);

  const AdmitResult next = fleet.submit(id, good);
  ASSERT_TRUE(next.accepted());
  EXPECT_EQ(next.stream_sequence, 1u)
      << "rejected submissions must not consume sequence numbers";
  EXPECT_EQ(fleet.close_stream(id).size(), 2u);
  EXPECT_EQ(fleet.stats().runtime.traces_submitted, 2u);
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

  FleetFrontend fleet(per_window_stage([](const sim::Trace&) { return core::Disassembly{}; }),
                      one_stream(1, 8));
  StreamOptions opts;
  opts.expected_acquisition = acq;
  const auto id = fleet.open_stream(opts);
  for (const sim::Trace& t : windows) ASSERT_TRUE(fleet.submit(id, t).accepted());
  EXPECT_EQ(fleet.close_stream(id).size(), windows.size());
}

TEST(Streaming, BackpressureBlocksProducerAtCapacity) {
  std::atomic<bool> release{false};
  FleetFrontend fleet(gated_stage(&release), one_stream(1, 3));
  const auto id = fleet.open_stream();

  std::atomic<std::size_t> accepted{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      if (fleet.submit(id, tagged_trace(i)).accepted()) ++accepted;
    }
  });
  std::this_thread::sleep_for(100ms);
  // The worker holds window 0 and windows 1-2 wait for dispatch: three
  // unclassified windows use up the credit, so submit() blocks on window 3.
  EXPECT_EQ(accepted.load(), 3u) << "submit() did not block at stream_credit";
  release.store(true);
  // Ready results hold no credit: the producer finishes although nobody
  // takes delivery.
  producer.join();
  EXPECT_EQ(accepted.load(), 6u);
  const std::vector<FleetResult> tail = fleet.close_stream(id);
  ASSERT_EQ(tail.size(), 6u);
  for (std::size_t i = 0; i < tail.size(); ++i) EXPECT_EQ(tail[i].stream_sequence, i);
  EXPECT_EQ(fleet.stats().windows_rejected, 0u);
  EXPECT_EQ(fleet.stats().windows_shed, 0u);
}

TEST(Streaming, DrainAfterCancelLosesAndDuplicatesNothing) {
  std::atomic<bool> release{false};
  FleetFrontend fleet(gated_stage(&release), one_stream(3, 4));
  const auto id = fleet.open_stream();

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<bool> closed{false};
  std::thread producer([&] {
    for (int i = 0;; ++i) {
      const AdmitResult a = fleet.submit(id, tagged_trace(i));
      if (!a.accepted()) {
        closed.store(a.status == AdmitStatus::kClosed);
        return;
      }
      ++accepted;
    }
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(accepted.load(), 4u) << "the producer is not blocked on its credit";
  // Cancel from another thread while the producer is blocked: close_stream
  // wakes it (kClosed), then waits for the wedged windows.
  std::vector<FleetResult> tail;
  std::thread closer([&] { tail = fleet.close_stream(id); });
  producer.join();
  EXPECT_TRUE(closed.load()) << "a cancelled submit must report kClosed";
  release.store(true);
  closer.join();
  EXPECT_EQ(fleet.submit(id, tagged_trace(9999)).status, AdmitStatus::kClosed);

  ASSERT_EQ(tail.size(), accepted.load())
      << "close_stream lost or duplicated accepted windows";
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].stream_sequence, i);
    EXPECT_EQ(tail[i].value.class_idx, i);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.runtime.traces_submitted, accepted.load());
  EXPECT_EQ(stats.runtime.traces_emitted, accepted.load());
  EXPECT_EQ(stats.windows_delivered, accepted.load());
}

TEST(Streaming, WorkerExceptionEmitsDefaultResultAndCounts) {
  const auto fn = [](const sim::Trace& t) -> core::Disassembly {
    if (t.meta.program_id == 1) throw std::runtime_error("model blew up");
    core::Disassembly d;
    d.class_idx = 42;
    return d;
  };
  FleetFrontend fleet(per_window_stage(std::move(fn)), one_stream(2, 8));
  const auto id = fleet.open_stream();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fleet.submit(id, tagged_trace(i)).accepted());
  const std::vector<FleetResult> out = fleet.close_stream(id);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value.class_idx, 42u);
  EXPECT_EQ(out[1].value.class_idx, 0u);  // default-constructed placeholder
  EXPECT_EQ(out[2].value.class_idx, 42u);
  EXPECT_EQ(fleet.stats().runtime.traces_failed, 1u);
}

TEST(Streaming, VerdictAndFaultCountersAggregate) {
  // Stub model: program_id selects the verdict, so the expected counter
  // values are exact.  Faulted windows are marked by their ground-truth
  // severity stamp, which the workers read off TraceMeta.
  const auto fn = [](const sim::Trace& t) {
    core::Disassembly d;
    if (t.meta.program_id % 3 == 1) d.verdict = core::Verdict::kRejected;
    if (t.meta.program_id % 3 == 2) d.verdict = core::Verdict::kDegraded;
    return d;
  };
  FleetFrontend fleet(per_window_stage(std::move(fn)), one_stream(2, 16));
  const auto id = fleet.open_stream();
  for (int i = 0; i < 9; ++i) {
    sim::Trace t = tagged_trace(i);
    if (i < 4) t.meta.fault_severity = 0.5 * static_cast<double>(i + 1);
    ASSERT_TRUE(fleet.submit(id, std::move(t)).accepted());
  }
  (void)fleet.close_stream(id);
  const RuntimeStats stats = fleet.stats().runtime;
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
  // Regression test for a checksum/stage race: a result stamp read
  // separately from the stage function could report the stamp of a
  // concurrently published successor.  Function and stamp are one shared
  // stage record, pinned as a unit.  Here every stage k tags its results
  // with class_idx = k and is published with stamp = k, so any tearing shows
  // up as a stamp/class mismatch -- and TSan (this test runs in the TSan CI
  // job too) would flag the unsynchronized read.
  const auto stage_k = [](std::uint64_t k) {
    return per_window_stage(
        [k](const sim::Trace&) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          core::Disassembly d;
          d.class_idx = static_cast<std::size_t>(k);
          return d;
        },
        k);
  };
  FleetFrontend fleet(stage_k(0), one_stream(4, 8));
  const auto id = fleet.open_stream();

  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    for (std::uint64_t k = 1; !stop_swapping.load(); ++k) {
      fleet.swap_stage(id, stage_k(k));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  constexpr std::size_t kTraces = 300;
  std::size_t checked = 0;
  std::size_t distinct_stamps = 0;
  std::uint64_t last_stamp = 0;
  const auto check = [&](const FleetResult& r) {
    EXPECT_EQ(r.value.class_idx, r.model_stamp)
        << "result " << r.stream_sequence << " stamped with a different stage";
    if (r.model_stamp != last_stamp) ++distinct_stamps;
    last_stamp = r.model_stamp;
    ++checked;
  };
  for (std::size_t i = 0; i < kTraces; ++i) {
    ASSERT_TRUE(fleet.submit(id, tagged_trace(static_cast<int>(i))).accepted());
    while (auto r = fleet.poll(id)) check(*r);
  }
  for (const FleetResult& r : fleet.close_stream(id)) check(r);
  stop_swapping.store(true);
  swapper.join();
  EXPECT_EQ(checked, kTraces);
  // The race window only exists when swaps actually interleave with work.
  // (distinct_stamps counts emission-order stamp *changes*, which can exceed
  // the swap count: neighboring jobs may pin stages in either order.)
  EXPECT_GE(distinct_stamps, 2u) << "swaps never interleaved; test proved nothing";
  EXPECT_GE(fleet.stats().runtime.model_swaps, 2u);
}

TEST(Streaming, WindowsAdmittedBeforeASwapKeepTheirStage) {
  // A swap publishes for windows admitted after it.  Windows 1-3 below are
  // still waiting for dispatch when the swap lands (the one worker is wedged
  // on window 0), and must nevertheless come back from the stage they were
  // admitted under.
  std::atomic<bool> release{false};
  const auto stage = [&release](std::uint64_t stamp) {
    return per_window_stage(
        [&release, stamp](const sim::Trace&) {
          while (!release.load()) std::this_thread::sleep_for(1ms);
          core::Disassembly d;
          d.class_idx = static_cast<std::size_t>(stamp);
          return d;
        },
        stamp);
  };
  FleetFrontend fleet(stage(1), one_stream(1, 16));
  const auto id = fleet.open_stream();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fleet.submit(id, tagged_trace(i)).accepted());
  fleet.swap_stage(id, stage(2));
  EXPECT_THROW(fleet.swap_stage(id, nullptr), std::invalid_argument);
  for (int i = 4; i < 8; ++i) ASSERT_TRUE(fleet.submit(id, tagged_trace(i)).accepted());
  release.store(true);

  const std::vector<FleetResult> out = fleet.close_stream(id);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t admitted_under = i < 4 ? 1 : 2;
    EXPECT_EQ(out[i].model_stamp, admitted_under) << "window " << i;
    EXPECT_EQ(out[i].value.class_idx, admitted_under) << "window " << i;
  }
  EXPECT_EQ(fleet.stats().runtime.model_swaps, 1u);
}

// -- drift isolation ---------------------------------------------------------

TEST_F(FleetModelFixture, DriftMonitorsAreIsolatedPerStream) {
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 2;
  cfg.batch_max = 4;
  cfg.stream_credit = 16;
  FleetFrontend fleet(model(), cfg);

  StreamOptions monitored;
  monitored.monitor_drift = true;
  const auto drifted_id = fleet.open_stream(monitored);
  const auto clean_id = fleet.open_stream(monitored);

  // One tenant's acquisition chain has aged hard; its neighbor is healthy.
  sim::DeviceModel aged = sim::DeviceModel::make(0);
  aged.aging_gain_drift = 0.35;
  sim::AcquisitionCampaign drifting{aged, sim::SessionContext::make(0)};
  constexpr std::size_t kWindows = 140;
  const sim::TraceSet drifted_windows = windows_on(drifting, kWindows, 0xd1f7, 1.0);
  const sim::TraceSet clean = clean_windows(kWindows, 0xc1ea);

  std::vector<FleetResult> sink;
  std::size_t drifted_events = 0, clean_events = 0;
  for (std::size_t i = 0; i < kWindows; ++i) {
    submit_pumping(fleet, drifted_id, drifted_windows[i], &sink);
    submit_pumping(fleet, clean_id, clean[i], &sink);
    while (fleet.poll(drifted_id)) {
    }
    while (fleet.poll(clean_id)) {
    }
    while (fleet.poll_drift_event(drifted_id)) ++drifted_events;
    while (fleet.poll_drift_event(clean_id)) ++clean_events;
  }
  // Wait out the in-flight tail so every window has passed its monitor, then
  // take the final per-stream event counts.
  const auto drain = [&](FleetFrontend::StreamId id) {
    for (;;) {
      while (fleet.poll(id)) {
      }
      const StreamStats ss = fleet.stream_stats(id);
      if (ss.windows_delivered == ss.windows_admitted) return;
      std::this_thread::sleep_for(1ms);
    }
  };
  drain(drifted_id);
  drain(clean_id);
  while (fleet.poll_drift_event(drifted_id)) ++drifted_events;
  while (fleet.poll_drift_event(clean_id)) ++clean_events;
  EXPECT_EQ(fleet.stream_stats(drifted_id).drift_events, drifted_events);
  EXPECT_EQ(fleet.stream_stats(clean_id).drift_events, clean_events);
  fleet.close_stream(drifted_id);
  fleet.close_stream(clean_id);
  const FleetStats stats = fleet.stats();

  EXPECT_GE(drifted_events, 1u)
      << "fully drifted stream never raised a drift event";
  EXPECT_EQ(clean_events, 0u)
      << "clean stream caught its neighbor's drift -- monitors not isolated";
  EXPECT_EQ(stats.drift_events, drifted_events + clean_events);
}

// -- drift monitors fold the walk's features ---------------------------------

/// Bitwise double equality: drift statistics must match to the last bit.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_events(const std::vector<DriftEvent>& got,
                        const std::vector<DriftEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < got.size(); ++e) {
    EXPECT_EQ(got[e].ordinal, want[e].ordinal) << "event " << e;
    EXPECT_EQ(got[e].observation, want[e].observation) << "event " << e;
    EXPECT_EQ(got[e].trigger, want[e].trigger) << "event " << e;
    EXPECT_TRUE(same_bits(got[e].z_rms, want[e].z_rms)) << "event " << e;
    EXPECT_TRUE(same_bits(got[e].symmetric_kl, want[e].symmetric_kl)) << "event " << e;
    EXPECT_TRUE(same_bits(got[e].reject_rate, want[e].reject_rate)) << "event " << e;
  }
}

/// One monitor_drift stream's run beside an external reference monitor.
struct MonitoredRun {
  std::vector<DriftEvent> fleet_events;
  std::vector<DriftEvent> reference_events;
  RuntimeStats runtime;
  std::size_t delivered = 0;
  std::size_t carrying_features = 0;  ///< delivered results with features,
                                      ///< on either stream
};

/// Streams `windows` through one monitor_drift stream of `model` (one
/// shard, kBlock), swapping the stream to `swap_to` just before window
/// `swap_at` is admitted when `swap_to` is set.  A reference DriftMonitor of
/// `model`, never rebound, observes every delivered (trace, result) in
/// delivery order the way an external monitor does.  An unmonitored
/// neighbor stream on the same stage gets the same windows, so batches mix
/// windows whose features are folded with windows whose features are not.
void run_monitored(std::shared_ptr<const core::HierarchicalDisassembler> model,
                   const sim::TraceSet& windows, std::size_t batch_max,
                   std::size_t workers, StageRef swap_to, std::size_t swap_at,
                   MonitoredRun& run) {
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = workers;
  cfg.batch_max = batch_max;
  cfg.stream_credit = 16;
  cfg.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(model, cfg);
  StreamOptions options;
  options.monitor_drift = true;
  const auto id = fleet.open_stream(options);
  const auto neighbor = fleet.open_stream();
  DriftMonitor reference(model);
  std::size_t neighbor_delivered = 0;
  const auto deliver = [&](const FleetResult& r) {
    if (!r.value.monitor_features.empty()) ++run.carrying_features;
    reference.observe(windows[r.stream_sequence], r.value);
    if (auto event = reference.poll_event()) run.reference_events.push_back(*event);
    ++run.delivered;
  };
  const auto deliver_neighbor = [&](const FleetResult& r) {
    if (!r.value.monitor_features.empty()) ++run.carrying_features;
    ++neighbor_delivered;
  };
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (swap_to != nullptr && i == swap_at) fleet.swap_stage(id, swap_to);
    ASSERT_TRUE(fleet.submit(id, windows[i]).accepted());
    ASSERT_TRUE(fleet.submit(neighbor, windows[i]).accepted());
    while (auto r = fleet.poll(id)) deliver(*r);
    while (auto r = fleet.poll(neighbor)) deliver_neighbor(*r);
    while (auto event = fleet.poll_drift_event(id)) run.fleet_events.push_back(*event);
  }
  while (run.delivered < windows.size() || neighbor_delivered < windows.size()) {
    bool progressed = false;
    if (auto r = fleet.poll(id)) {
      deliver(*r);
      progressed = true;
    }
    if (auto r = fleet.poll(neighbor)) {
      deliver_neighbor(*r);
      progressed = true;
    }
    if (!progressed) std::this_thread::sleep_for(100us);
  }
  while (auto event = fleet.poll_drift_event(id)) run.fleet_events.push_back(*event);
  EXPECT_FALSE(fleet.poll_drift_event(neighbor).has_value());
  EXPECT_TRUE(fleet.close_stream(id).empty());
  EXPECT_TRUE(fleet.close_stream(neighbor).empty());
  run.runtime = fleet.stats().runtime;
}

/// 80 clean windows, then 160 from a hard-aged acquisition chain: drift
/// events fire in the second part.
class FleetDriftFixture : public FleetModelFixture {
 protected:
  static const sim::TraceSet& clean_then_drifted() {
    static const sim::TraceSet windows = [] {
      sim::TraceSet out = clean_windows(80, 0xc1ea);
      sim::DeviceModel aged = sim::DeviceModel::make(0);
      aged.aging_gain_drift = 0.35;
      const sim::AcquisitionCampaign drifting{aged, sim::SessionContext::make(0)};
      for (sim::Trace& t : windows_on(drifting, 160, 0xd1f7, 1.0)) {
        out.push_back(std::move(t));
      }
      return out;
    }();
    return windows;
  }
};

TEST_F(FleetDriftFixture, MonitoredStreamFoldsMatchAReferenceMonitor) {
  // The stream's monitor folds the walk's own features; an external monitor
  // re-transforms every delivered window.  Same events, bit for bit, at any
  // batch width and worker count.
  const sim::TraceSet& windows = clean_then_drifted();
  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{16}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE("batch_max=" + std::to_string(batch_max) +
                   " workers=" + std::to_string(workers));
      MonitoredRun run;
      run_monitored(model(), windows, batch_max, workers, nullptr, 0, run);
      ASSERT_EQ(run.delivered, windows.size());
      EXPECT_FALSE(run.reference_events.empty()) << "no drift event: test proves nothing";
      expect_same_events(run.fleet_events, run.reference_events);
      EXPECT_EQ(run.runtime.monitor_folds, windows.size());
      EXPECT_EQ(run.runtime.monitor_retransforms, 0u);
      EXPECT_EQ(run.carrying_features, 0u) << "a delivered result kept its features";
      EXPECT_NE(run.runtime.report().find("monitor_folds=240 monitor_retransforms=0"),
                std::string::npos);
    }
  }
}

TEST_F(FleetDriftFixture, MonitoredStreamReTransformsAfterASwapToAnotherModel) {
  // A swap_stage to a recalibrated copy leaves the in-fleet monitor bound to
  // the original model, like the reference: windows admitted after the swap
  // come from another model's walk, so their features are not the monitor's
  // and the monitor transforms those windows itself.
  const sim::TraceSet& windows = clean_then_drifted();
  auto copy = std::make_shared<core::HierarchicalDisassembler>([] {
    std::stringstream ss;
    model()->save(ss);
    return core::HierarchicalDisassembler::load(ss);
  }());
  copy->recalibrate(sim::TraceSet(windows.end() - 30, windows.end()));
  const StageRef recalibrated = make_stage(copy, 7);
  constexpr std::size_t kSwapAt = 120;
  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{16}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE("batch_max=" + std::to_string(batch_max) +
                   " workers=" + std::to_string(workers));
      MonitoredRun run;
      run_monitored(model(), windows, batch_max, workers, recalibrated, kSwapAt, run);
      ASSERT_EQ(run.delivered, windows.size());
      EXPECT_FALSE(run.reference_events.empty()) << "no drift event: test proves nothing";
      expect_same_events(run.fleet_events, run.reference_events);
      EXPECT_EQ(run.runtime.monitor_folds, kSwapAt);
      EXPECT_EQ(run.runtime.monitor_retransforms, windows.size() - kSwapAt);
      EXPECT_EQ(run.carrying_features, 0u) << "a delivered result kept its features";
      EXPECT_EQ(run.runtime.model_swaps, 1u);
    }
  }
}

TEST_F(FleetDriftFixture, MonitoredStreamOnACustomStageReTransforms) {
  // A custom stage names no model, so its results carry no features and
  // every window is re-transformed; the events still match.
  const sim::TraceSet& windows = clean_then_drifted();
  const auto m = model();
  const StageRef custom = std::make_shared<const Stage>(
      Stage{[m](std::span<const sim::Trace> ts) { return m->classify_batch(ts); }, 3});
  MonitoredRun run;
  run_monitored(m, windows, 16, 2, custom, 0, run);
  ASSERT_EQ(run.delivered, windows.size());
  expect_same_events(run.fleet_events, run.reference_events);
  EXPECT_EQ(run.runtime.monitor_folds, 0u);
  EXPECT_EQ(run.runtime.monitor_retransforms, windows.size());
}

TEST_F(FleetModelFixture, StageBackedDefaultStreamsMonitorAndDecode) {
  // A stage-backed fleet whose default stage is make_stage(model) is the
  // model-backed fleet: its default streams monitor (folding every window
  // from the walk's own features) and decode sequences.
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.batch_max = 4;
  cfg.stream_credit = 64;
  cfg.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(make_stage(model()), cfg);

  StreamOptions monitored;
  monitored.monitor_drift = true;
  StreamOptions decoded;
  decoded.decode_sequence = true;
  decoded.decode_prior = cadence_prior();
  const auto watch = fleet.open_stream(monitored);
  const auto first = fleet.open_stream(decoded);
  const auto second = fleet.open_stream(decoded);

  const sim::TraceSet windows = clean_windows(24, 0x5a6e);
  for (const sim::Trace& t : windows) {
    for (const auto id : {watch, first, second}) {
      ASSERT_TRUE(fleet.submit(id, t).accepted());
    }
  }
  EXPECT_EQ(fleet.close_stream(watch).size(), windows.size());
  expect_decoded_like_reference(fleet.close_stream(first), *model(), windows,
                                decoded.decode_prior);
  expect_decoded_like_reference(fleet.close_stream(second), *model(), windows,
                                decoded.decode_prior);

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.runtime.monitor_folds, windows.size());
  EXPECT_EQ(stats.runtime.monitor_retransforms, 0u);
  EXPECT_EQ(stats.runtime.windows_decoded, 2 * windows.size());
  EXPECT_EQ(stats.models_cached, 0u);  // the default stage is no artifact
}

// -- failure and churn --------------------------------------------------------

TEST(Fleet, ThrowingBatchEntryDeliversPlaceholdersInOrderAndCounts) {
  // The stage blows up on every multi-window job; single windows work.
  // Wedge the one worker on a singleton so the backlog leaves as
  // multi-window batches, every one of which throws: those windows must
  // come back as default-constructed placeholders, in per-stream order,
  // counted as failed, with the ledger still closed.
  std::atomic<bool> release{false};
  const auto classify =
      [&release](std::span<const sim::Trace> ts) -> std::vector<core::Disassembly> {
    if (ts.size() > 1) throw std::runtime_error("batched model blew up");
    while (!release.load()) std::this_thread::sleep_for(1ms);
    std::vector<core::Disassembly> out(1);
    out[0].class_idx = static_cast<std::size_t>(ts[0].meta.program_id);
    return out;
  };
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.batch_max = 4;
  cfg.shard_depth = 4;
  cfg.stream_credit = 16;
  FleetFrontend fleet(std::make_shared<const Stage>(Stage{classify, 0}), cfg);

  constexpr std::size_t kStreams = 2;
  constexpr int kWindows = 10;
  std::vector<FleetFrontend::StreamId> ids;
  for (std::size_t s = 0; s < kStreams; ++s) ids.push_back(fleet.open_stream());
  for (int i = 0; i < kWindows; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(
          fleet.submit(ids[s], tagged_trace(static_cast<int>(s) * 100 + i + 1))
              .accepted());
    }
  }
  release.store(true);

  std::size_t placeholders = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    std::vector<FleetResult> got;
    while (auto r = fleet.poll(ids[s])) got.push_back(std::move(*r));
    for (FleetResult& r : fleet.close_stream(ids[s])) got.push_back(std::move(r));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kWindows)) << "stream " << s;
    for (int i = 0; i < kWindows; ++i) {
      EXPECT_EQ(got[i].stream_sequence, static_cast<std::uint64_t>(i))
          << "stream " << s << " delivered out of order";
      const core::Disassembly placeholder;
      if (got[i].value.class_idx == placeholder.class_idx) {
        EXPECT_EQ(got[i].value.verdict, placeholder.verdict);
        ++placeholders;
      } else {
        EXPECT_EQ(got[i].value.class_idx, s * 100 + static_cast<std::size_t>(i) + 1)
            << "stream " << s << " got another window's result";
      }
    }
  }

  const FleetStats stats = fleet.stats();
  EXPECT_GT(placeholders, 0u) << "no batch ever reached the throwing entry";
  EXPECT_EQ(stats.runtime.traces_failed, placeholders);
  EXPECT_EQ(stats.runtime.batch_classified_windows, placeholders);
  EXPECT_EQ(stats.runtime.traces_completed, kStreams * kWindows);
  EXPECT_EQ(stats.windows_admitted, kStreams * kWindows);
  EXPECT_EQ(stats.windows_delivered + stats.windows_shed, stats.windows_admitted);
  EXPECT_EQ(stats.windows_shed, 0u);
}

TEST(Fleet, ChaosChurnKeepsStreamsOrderedAndTheLedgerClosed) {
  // Several tenant threads hammer one two-shard fleet whose stage finishes
  // out of order, for single windows and batches alike.  Each thread opens streams, submits
  // with interleaved polls, and closes every stream while its windows are
  // still in flight.  Per stream: strictly ascending delivery, every result
  // answers its own window, delivered + shed == admitted; fleet-wide the
  // same ledger closes, and every close returns.
  const auto delay = [](int tag) {
    std::this_thread::sleep_for(std::chrono::microseconds(40 * (5 - tag % 5)));
  };
  const auto classify = [delay](std::span<const sim::Trace> ts) {
    delay(ts.front().meta.program_id);
    std::vector<core::Disassembly> out(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      out[i].class_idx = static_cast<std::size_t>(ts[i].meta.program_id);
    }
    return out;
  };
  const StageRef stage = std::make_shared<const Stage>(Stage{classify, 0});

  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kRejectNew, AdmissionPolicy::kShedOldest}) {
    SCOPED_TRACE("policy " + to_string(policy));
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.workers_per_shard = 2;
    cfg.batch_max = 4;
    cfg.shard_depth = 8;
    cfg.stream_credit = 5;
    cfg.admission = policy;
    FleetFrontend fleet(stage, cfg);

    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    constexpr int kStreamsPerRound = 2;
    constexpr int kWindows = 24;
    std::atomic<std::uint64_t> admitted{0}, delivered{0}, shed{0}, closes{0};
    std::vector<std::thread> tenants;
    for (int t = 0; t < kThreads; ++t) {
      tenants.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          struct Tenant {
            FleetFrontend::StreamId id = 0;
            std::map<std::uint64_t, int> tags;  ///< admitted sequence -> tag
            std::vector<FleetResult> got;
            std::uint64_t shed = 0;
          };
          std::vector<Tenant> streams(kStreamsPerRound);
          for (Tenant& s : streams) s.id = fleet.open_stream();
          for (int i = 0; i < kWindows; ++i) {
            for (std::size_t k = 0; k < streams.size(); ++k) {
              Tenant& s = streams[k];
              const int tag = ((t * kRounds + round) * kStreamsPerRound +
                               static_cast<int>(k)) * 1000 + i + 1;
              const AdmitResult r = fleet.submit(s.id, tagged_trace(tag));
              if (r.accepted()) s.tags[r.stream_sequence] = tag;
              if (r.status == AdmitStatus::kAcceptedShedOldest) ++s.shed;
              while (auto polled = fleet.poll(s.id)) s.got.push_back(std::move(*polled));
            }
            // Pace the tenant so some windows complete between submits and
            // the credit both refills and overflows.
            if (i % 4 == 3) std::this_thread::sleep_for(200us);
          }
          // Close with windows still pending or in the workers' hands.
          for (Tenant& s : streams) {
            for (FleetResult& r : fleet.close_stream(s.id)) s.got.push_back(std::move(r));
            ++closes;
            for (std::size_t j = 0; j < s.got.size(); ++j) {
              if (j > 0) {
                EXPECT_GT(s.got[j].stream_sequence, s.got[j - 1].stream_sequence);
              }
              const auto tag = s.tags.find(s.got[j].stream_sequence);
              ASSERT_NE(tag, s.tags.end()) << "delivered a never-admitted window";
              EXPECT_EQ(s.got[j].value.class_idx, static_cast<std::size_t>(tag->second));
            }
            EXPECT_EQ(s.got.size() + s.shed, s.tags.size())
                << "stream ledger open: delivered + shed != admitted";
            if (policy == AdmissionPolicy::kRejectNew) {
              EXPECT_EQ(s.shed, 0u);
            }
            admitted += s.tags.size();
            delivered += s.got.size();
            shed += s.shed;
          }
        }
      });
    }
    for (std::thread& th : tenants) th.join();

    EXPECT_EQ(closes.load(), std::uint64_t{kThreads * kRounds * kStreamsPerRound});
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.streams_live, 0u);
    EXPECT_EQ(stats.streams_closed, stats.streams_opened);
    EXPECT_EQ(stats.windows_admitted, admitted.load());
    EXPECT_EQ(stats.windows_delivered, delivered.load());
    EXPECT_EQ(stats.windows_shed, shed.load());
    EXPECT_EQ(stats.windows_delivered + stats.windows_shed, stats.windows_admitted);
    EXPECT_EQ(stats.runtime.traces_completed, stats.runtime.traces_submitted);
  }
}

// -- registry resolution -----------------------------------------------------

class FleetRegistryFixture : public FleetModelFixture {
 protected:
  static std::filesystem::path fresh_root(const std::string& tag) {
    const auto root =
        std::filesystem::path(::testing::TempDir()) / ("sidis_fleet_" + tag);
    std::filesystem::remove_all(root);
    return root;
  }

  /// A distinct artifact: the fixture model recalibrated on its own windows.
  static core::HierarchicalDisassembler variant(std::uint64_t seed) {
    std::stringstream ss;
    model()->save(ss);
    core::HierarchicalDisassembler copy = core::HierarchicalDisassembler::load(ss);
    copy.recalibrate(clean_windows(12, seed));
    return copy;
  }

  /// Closes `id` and returns the stamps of its results.
  static std::vector<std::uint64_t> close_stamps(FleetFrontend& fleet,
                                                 FleetFrontend::StreamId id) {
    std::vector<std::uint64_t> stamps;
    for (const FleetResult& r : fleet.close_stream(id)) stamps.push_back(r.model_stamp);
    return stamps;
  }
};

TEST_F(FleetRegistryFixture, StreamsShareOneModelPerArtifactAndStampResults) {
  ModelRegistry registry(fresh_root("share"));
  registry.save("tenant-model", *model());       // v1
  registry.save("tenant-model", variant(0x73));  // v2, a distinct model
  const std::uint64_t v1_checksum = registry.info("tenant-model", 1).checksum;
  const std::uint64_t v2_checksum = registry.info("tenant-model", 2).checksum;
  // The checksum covers the payload only: equal models would stamp alike,
  // and the v1/v2 stamp checks below would prove nothing.
  ASSERT_NE(v1_checksum, v2_checksum) << "the versions must be distinct artifacts";

  FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 1;
  FleetFrontend fleet(model(), cfg, &registry);

  StreamOptions latest;
  latest.model_name = "tenant-model";
  StreamOptions pinned_v1;
  pinned_v1.model_name = "tenant-model";
  pinned_v1.model_version = 1;

  const auto a = fleet.open_stream(latest);    // resolves latest -> v2
  const auto b = fleet.open_stream(latest);    // shares v2, no second load
  const auto c = fleet.open_stream(pinned_v1); // distinct artifact
  EXPECT_EQ(fleet.stats().models_cached, 2u);

  const sim::TraceSet probes = clean_windows(4, 0x9e9);
  for (const sim::Trace& t : probes) {
    ASSERT_TRUE(fleet.submit(a, t).accepted());
    ASSERT_TRUE(fleet.submit(b, t).accepted());
    ASSERT_TRUE(fleet.submit(c, t).accepted());
  }
  const auto check_stamps = [&](FleetFrontend::StreamId id, std::uint64_t want) {
    const std::vector<FleetResult> got = fleet.close_stream(id);
    ASSERT_EQ(got.size(), probes.size());
    for (const FleetResult& r : got) {
      EXPECT_EQ(r.model_stamp, want)
          << "result not stamped with its serving artifact's checksum";
    }
  };
  check_stamps(a, v2_checksum);
  check_stamps(b, v2_checksum);
  check_stamps(c, v1_checksum);

  // Unresolvable options fail loudly at open time, not at classify time.
  StreamOptions unknown;
  unknown.model_name = "no-such-bundle";
  EXPECT_THROW(fleet.open_stream(unknown), std::runtime_error);
}

TEST_F(FleetRegistryFixture, LatestStaysPinnedAcrossLaterSaves) {
  ModelRegistry registry(fresh_root("pin"));
  registry.save("tenant-model", *model());       // v1
  registry.save("tenant-model", variant(0x71));  // v2
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  FleetFrontend fleet(model(), cfg, &registry);

  StreamOptions latest;
  latest.model_name = "tenant-model";
  const auto first = fleet.open_stream(latest);  // pins latest -> v2
  ASSERT_EQ(registry.save("tenant-model", variant(0x72)), 3);
  const std::uint64_t v2 = registry.info("tenant-model", 2).checksum;
  const std::uint64_t v3 = registry.info("tenant-model", 3).checksum;
  ASSERT_NE(v2, v3) << "the versions must be distinct artifacts";
  const auto later = fleet.open_stream(latest);
  StreamOptions explicit_v3 = latest;
  explicit_v3.model_version = 3;
  const auto newest = fleet.open_stream(explicit_v3);

  const sim::Trace probe = clean_windows(1, 0x9e9).front();
  for (const auto id : {first, later, newest}) {
    ASSERT_TRUE(fleet.submit(id, probe).accepted());
  }
  EXPECT_EQ(close_stamps(fleet, first), std::vector<std::uint64_t>{v2});
  EXPECT_EQ(close_stamps(fleet, later), std::vector<std::uint64_t>{v2})
      << "a later save moved the latest pin";
  EXPECT_EQ(close_stamps(fleet, newest), std::vector<std::uint64_t>{v3});
  EXPECT_EQ(fleet.stats().models_cached, 2u);
}

TEST_F(FleetRegistryFixture, RegistryStreamsMonitorAndDecode) {
  // The default stage names no model, so only registry streams can monitor
  // and decode here; they do so exactly like a model-backed default stream.
  ModelRegistry registry(fresh_root("serve"));
  registry.save("tenant-model", *model());
  const std::uint64_t checksum = registry.info("tenant-model", 1).checksum;
  const core::HierarchicalDisassembler loaded = registry.load("tenant-model", 1);
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.batch_max = 4;
  cfg.stream_credit = 64;
  cfg.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(echo_stage(), cfg, &registry);

  StreamOptions monitored;
  monitored.model_name = "tenant-model";
  monitored.monitor_drift = true;
  StreamOptions decoded;
  decoded.model_name = "tenant-model";
  decoded.decode_sequence = true;
  decoded.decode_prior = cadence_prior();
  const auto watch = fleet.open_stream(monitored);
  const auto first = fleet.open_stream(decoded);
  const auto second = fleet.open_stream(decoded);

  const sim::TraceSet windows = clean_windows(24, 0x7e57);
  for (const sim::Trace& t : windows) {
    for (const auto id : {watch, first, second}) {
      ASSERT_TRUE(fleet.submit(id, t).accepted());
    }
  }
  const std::vector<std::uint64_t> watched = close_stamps(fleet, watch);
  EXPECT_EQ(watched, std::vector<std::uint64_t>(windows.size(), checksum));
  for (const auto id : {first, second}) {
    const std::vector<FleetResult> got = fleet.close_stream(id);
    expect_decoded_like_reference(got, loaded, windows, decoded.decode_prior);
    for (const FleetResult& r : got) EXPECT_EQ(r.model_stamp, checksum);
  }

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.runtime.monitor_folds, windows.size());
  EXPECT_EQ(stats.runtime.monitor_retransforms, 0u);
  EXPECT_EQ(stats.runtime.windows_decoded, 2 * windows.size());
  EXPECT_EQ(stats.models_cached, 1u);
}

TEST_F(FleetRegistryFixture, ConcurrentOpensKeepOneLatestPinUnderVersionSkew) {
  // Registry version skew: tenant threads open streams on {a latest, a v1,
  // b latest} while a writer publishes new versions of both bundles.  Every
  // "latest" stream of a bundle serves the one version the fleet pinned
  // first; explicit streams serve their own version.
  ModelRegistry registry(fresh_root("skew"));
  registry.save("a", *model());
  registry.save("b", *model());
  const std::uint64_t a_v1 = registry.info("a", 1).checksum;
  std::vector<core::HierarchicalDisassembler> releases;
  for (std::uint64_t k = 0; k < 3; ++k) releases.push_back(variant(0x5e00 + k));

  FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 1;
  cfg.batch_max = 4;
  cfg.stream_credit = 8;
  cfg.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(model(), cfg, &registry);

  std::vector<StreamOptions> kinds(3);
  kinds[0].model_name = "a";
  kinds[1].model_name = "a";
  kinds[1].model_version = 1;
  kinds[2].model_name = "b";
  const sim::TraceSet probes = clean_windows(2, 0x5e5e);

  constexpr int kThreads = 4;
  constexpr int kStreamsPerThread = 6;
  std::mutex mutex;
  std::vector<std::set<std::uint64_t>> stamps(kinds.size());
  std::atomic<std::uint64_t> admitted{0}, delivered{0};
  std::thread writer([&] {
    for (const core::HierarchicalDisassembler& release : releases) {
      registry.save("a", release);
      registry.save("b", release);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::vector<std::thread> tenants;
  for (int t = 0; t < kThreads; ++t) {
    tenants.emplace_back([&, t] {
      for (int i = 0; i < kStreamsPerThread; ++i) {
        const std::size_t kind = static_cast<std::size_t>(t + i) % kinds.size();
        const auto id = fleet.open_stream(kinds[kind]);
        for (const sim::Trace& w : probes) {
          if (fleet.submit(id, w).accepted()) ++admitted;
        }
        const std::vector<std::uint64_t> got = close_stamps(fleet, id);
        delivered += got.size();
        std::lock_guard lock(mutex);
        stamps[kind].insert(got.begin(), got.end());
      }
    });
  }
  writer.join();
  for (std::thread& th : tenants) th.join();

  const auto checksums_of = [&](const std::string& name) {
    std::set<std::uint64_t> out;
    for (const int v : registry.versions(name)) out.insert(registry.info(name, v).checksum);
    return out;
  };
  ASSERT_EQ(stamps[0].size(), 1u) << "latest streams of bundle a serve different artifacts";
  ASSERT_EQ(stamps[2].size(), 1u) << "latest streams of bundle b serve different artifacts";
  EXPECT_EQ(checksums_of("a").count(*stamps[0].begin()), 1u);
  EXPECT_EQ(checksums_of("b").count(*stamps[2].begin()), 1u);
  EXPECT_EQ(stamps[1], std::set<std::uint64_t>{a_v1});

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(admitted.load(), std::uint64_t{kThreads * kStreamsPerThread} * probes.size());
  EXPECT_EQ(stats.windows_admitted, admitted.load());
  EXPECT_EQ(stats.windows_delivered, delivered.load());
  EXPECT_EQ(stats.windows_delivered + stats.windows_shed, stats.windows_admitted);
  EXPECT_EQ(stats.streams_closed, stats.streams_opened);
  EXPECT_EQ(stats.streams_live, 0u);
  EXPECT_GE(stats.models_cached, 2u);
  EXPECT_LE(stats.models_cached, 3u);
}

TEST(Fleet, OpenStreamRejectsUnresolvableOptions) {
  FleetFrontend fleet(echo_stage(), {});
  // Named model without a registry: nothing to resolve against.
  StreamOptions named;
  named.model_name = "anything";
  EXPECT_THROW(fleet.open_stream(named), std::invalid_argument);
  // Drift monitoring on a stage-backed default stream: no model to project
  // monitor features through.
  StreamOptions monitored;
  monitored.monitor_drift = true;
  EXPECT_THROW(fleet.open_stream(monitored), std::invalid_argument);
  // Sequence decoding on it: no posterior support for the lattice.
  StreamOptions decoded;
  decoded.decode_sequence = true;
  decoded.decode_prior = cadence_prior();
  EXPECT_THROW(fleet.open_stream(decoded), std::invalid_argument);
}

}  // namespace
}  // namespace sidis::runtime
