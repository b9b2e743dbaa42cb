// Multimodal fusion battery: the equivalence and degradation contracts of
// core::FusedDisassembler and its runtime wiring.
//
//  * weight corner (1, 0) is bit-identical to the power-only classifier --
//    the guarantee that lets a fused serving tier consume single-channel
//    templates with zero behavioural diff;
//  * fused classify_batch is bit-identical to fused scalar classify across
//    batch sizes, and served verdicts are shard- and worker-count invariant
//    (fusion adds no scheduling-dependent arithmetic);
//  * one channel recalibrates while the other keeps serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/csa.hpp"
#include "core/fusion.hpp"
#include "runtime/drift.hpp"
#include "runtime/fleet.hpp"
#include "runtime/recal.hpp"
#include "sim/acquisition.hpp"

namespace sidis {
namespace {

using core::Disassembly;
using core::FusedDisassembler;
using core::FusionMode;
using core::HierarchicalDisassembler;
using core::LevelFusion;

sim::AcquisitionOptions paired_options() {
  sim::AcquisitionOptions o;
  o.em.enabled = true;
  return o;
}

/// Shared profiled world: one paired campaign, per-channel models trained
/// once for the whole battery (training dominates the runtime).
struct FusionWorld {
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0),
                                    sim::LeakageConfig{}, sim::ScopeConfig{},
                                    paired_options()};
  std::vector<std::size_t> classes;
  std::map<std::size_t, sim::TraceSet> paired;
  std::shared_ptr<const HierarchicalDisassembler> power;
  std::shared_ptr<const HierarchicalDisassembler> em;
  sim::TraceSet probes;  ///< mixed-class paired evaluation windows

  FusionWorld() {
    std::mt19937_64 rng(41);
    core::ProfilingData power_data, em_data;
    for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kAnd,
                            avr::Mnemonic::kLdi, avr::Mnemonic::kCom,
                            avr::Mnemonic::kLsr}) {
      const std::size_t c = *avr::class_index(m);
      classes.push_back(c);
      paired[c] = campaign.capture_class(c, 60, 5, rng);
      power_data.classes[c] = sim::channel_views(paired[c], sim::Channel::kPower);
      em_data.classes[c] = sim::channel_views(paired[c], sim::Channel::kEm);
    }
    core::HierarchicalConfig cfg;
    cfg.pipeline = core::csa_config();
    cfg.pipeline.pca_components = 10;
    cfg.group_components = 8;
    cfg.instruction_components = 8;
    auto p = HierarchicalDisassembler::train(power_data, cfg);
    p.calibrate_reject(power_data);
    auto e = HierarchicalDisassembler::train(em_data, cfg);
    e.calibrate_reject(em_data);
    power = std::make_shared<const HierarchicalDisassembler>(std::move(p));
    em = std::make_shared<const HierarchicalDisassembler>(std::move(e));
    for (int i = 0; i < 64; ++i) {
      const std::size_t c = classes[static_cast<std::size_t>(i) % classes.size()];
      probes.push_back(campaign.capture_trace(avr::random_instance(c, rng),
                                              sim::ProgramContext::make(i % 5),
                                              rng));
    }
  }
};

const FusionWorld& world() {
  static FusionWorld w;
  return w;
}

FusedDisassembler balanced_fused() {
  return FusedDisassembler(world().power, world().em,
                           LevelFusion{FusionMode::kScore, 0.5, 0.5},
                           LevelFusion{FusionMode::kScore, 0.5, 0.5});
}

void expect_same(const Disassembly& a, const Disassembly& b) {
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.class_idx, b.class_idx);
  EXPECT_EQ(a.rd, b.rd);
  EXPECT_EQ(a.rr, b.rr);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.margin_headroom, b.margin_headroom);  // bit-exact, not NEAR
  EXPECT_EQ(a.score_headroom, b.score_headroom);
  ASSERT_EQ(a.log_posterior.size(), b.log_posterior.size());
  for (std::size_t i = 0; i < a.log_posterior.size(); ++i) {
    EXPECT_EQ(a.log_posterior[i], b.log_posterior[i]);
  }
}

TEST(FusionEquivalence, PowerOnlyWeightsAreBitIdenticalToPowerModel) {
  const FusedDisassembler fused(world().power, world().em,
                                LevelFusion{FusionMode::kScore, 1.0, 0.0},
                                LevelFusion{FusionMode::kScore, 1.0, 0.0});
  ASSERT_TRUE(fused.degenerate_to(sim::Channel::kPower));
  for (const sim::Trace& t : world().probes) {
    const sim::Trace pview = sim::channel_view(t, sim::Channel::kPower);
    expect_same(world().power->classify(pview), fused.classify(t));
    expect_same(world().power->classify_scored(pview), fused.classify_scored(t));
  }
}

TEST(FusionEquivalence, EmOnlyWeightsAreBitIdenticalToEmModel) {
  const FusedDisassembler fused(world().power, world().em,
                                LevelFusion{FusionMode::kScore, 0.0, 1.0},
                                LevelFusion{FusionMode::kScore, 0.0, 1.0});
  ASSERT_TRUE(fused.degenerate_to(sim::Channel::kEm));
  for (const sim::Trace& t : world().probes) {
    const sim::Trace eview = sim::channel_view(t, sim::Channel::kEm);
    expect_same(world().em->classify_scored(eview), fused.classify_scored(t));
  }
}

TEST(FusionEquivalence, FusedBatchMatchesFusedScalarAcrossBatchSizes) {
  const FusedDisassembler fused = balanced_fused();
  std::vector<Disassembly> scalar, scalar_scored;
  for (const sim::Trace& t : world().probes) {
    scalar.push_back(fused.classify(t));
    scalar_scored.push_back(fused.classify_scored(t));
  }
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                            std::size_t{64}}) {
    for (std::size_t start = 0; start < world().probes.size(); start += batch) {
      const std::size_t end = std::min(start + batch, world().probes.size());
      sim::TraceSet chunk(world().probes.begin() + static_cast<long>(start),
                          world().probes.begin() + static_cast<long>(end));
      const std::vector<Disassembly> got = fused.classify_batch(chunk);
      const std::vector<Disassembly> got_scored = fused.classify_batch_scored(chunk);
      ASSERT_EQ(got.size(), chunk.size());
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        expect_same(scalar[start + i], got[i]);
        expect_same(scalar_scored[start + i], got_scored[i]);
      }
    }
  }
}

TEST(FusionEquivalence, MixedPresenceBatchMatchesScalar) {
  const FusedDisassembler fused = balanced_fused();
  // Strip the EM half from every third window: the batch path must fuse the
  // paired windows and degrade the bare ones exactly like the scalar path.
  sim::TraceSet mixed = world().probes;
  for (std::size_t i = 0; i < mixed.size(); i += 3) mixed[i].em_samples.clear();
  const std::vector<Disassembly> batch = fused.classify_batch_scored(mixed);
  ASSERT_EQ(batch.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    expect_same(fused.classify_scored(mixed[i]), batch[i]);
    if (!mixed[i].has_em() && batch[i].verdict == core::Verdict::kOk) {
      ADD_FAILURE() << "bare power window must be flagged degraded";
    }
  }
}

TEST(FusionEquivalence, FusedPosteriorsKeepTheConditionalsOfGroupsOutOfReach) {
  // A channel's public scored walk spreads a group far behind its best
  // evenly over the group's classes.  Fusion must not see that spread: the
  // other channel can outvote a group one channel put out of reach, so the
  // fused posterior recombines every group's own within-group conditionals.
  // ADD/AND and COM/LSR are the two-class groups here.
  const FusedDisassembler fused = balanced_fused();
  const std::vector<std::size_t>& support = fused.posterior_classes();
  std::size_t out_of_reach = 0;
  for (const Disassembly& d : fused.classify_batch_scored(world().probes)) {
    ASSERT_EQ(d.log_posterior.size(), support.size());
    std::map<int, std::vector<double>> members;
    for (std::size_t c = 0; c < support.size(); ++c) {
      members[avr::group_of_class(support[c])].push_back(d.log_posterior[c]);
    }
    const double best =
        *std::max_element(d.log_posterior.begin(), d.log_posterior.end());
    for (const auto& [group, v] : members) {
      if (v.size() < 2 || !std::isfinite(v[0])) continue;
      EXPECT_NE(v[0], v[1]) << "group " << group << " spread evenly";
      if (std::max(v[0], v[1]) < best - HierarchicalDisassembler::kGroupReach) {
        ++out_of_reach;
      }
    }
  }
  EXPECT_GT(out_of_reach, 0u);
}

std::vector<Disassembly> fleet_all(std::size_t shards, std::size_t workers) {
  auto model = std::make_shared<const FusedDisassembler>(balanced_fused());
  runtime::FleetConfig cfg;
  cfg.shards = shards;
  cfg.workers_per_shard = workers;
  cfg.admission = runtime::AdmissionPolicy::kBlock;
  runtime::FleetFrontend fleet(
      runtime::make_stage(model, 0, /*scored=*/true), cfg);
  const auto id = fleet.open_stream();
  std::vector<Disassembly> out;
  for (const sim::Trace& t : world().probes) {
    EXPECT_TRUE(fleet.submit(id, t).accepted());
    while (auto r = fleet.poll(id)) out.push_back(std::move(r->value));
  }
  // close_stream waits out the in-flight tail and returns it in order.
  for (runtime::FleetResult& r : fleet.close_stream(id)) {
    out.push_back(std::move(r.value));
  }
  return out;
}

TEST(FusionRuntime, StreamingVerdictsAreWorkerCountInvariant) {
  // One shard, swept over workers_per_shard: batch grouping and completion
  // order vary, the verdicts must not.
  const std::vector<Disassembly> one = fleet_all(1, 1);
  ASSERT_EQ(one.size(), world().probes.size());
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const std::vector<Disassembly> many = fleet_all(1, workers);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) expect_same(one[i], many[i]);
  }
}

TEST(FusionRuntime, FleetVerdictsAreShardCountInvariant) {
  // Sweeps shards x workers_per_shard against the one-shard, one-worker run.
  const std::vector<Disassembly> one = fleet_all(1, 1);
  ASSERT_EQ(one.size(), world().probes.size());
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " workers " +
                   std::to_string(workers));
      const std::vector<Disassembly> many = fleet_all(shards, workers);
      ASSERT_EQ(many.size(), one.size());
      for (std::size_t i = 0; i < one.size(); ++i) expect_same(one[i], many[i]);
    }
  }
}

TEST(FusionRuntime, OneChannelRecalibratesWhileTheOtherServes) {
  auto current = std::make_shared<FusedDisassembler>(balanced_fused());
  runtime::FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 2;
  cfg.admission = runtime::AdmissionPolicy::kBlock;
  runtime::FleetFrontend fleet(runtime::make_stage(current, 0, /*scored=*/true), cfg);
  const auto id = fleet.open_stream();

  runtime::CampaignCalibrationSource inner(world().campaign, world().classes,
                                           /*num_programs=*/5, /*seed=*/99);
  runtime::ChannelCalibrationSource em_source(inner, sim::Channel::kEm);
  runtime::RecalPolicy policy;
  policy.traces_per_class = 4;
  runtime::RecalibrationScheduler scheduler(fleet, id, world().em, em_source, policy);

  // The publisher rebinds ONLY the EM channel: a fresh fused model keeps the
  // power channel pointer and gets published as the stream's next stage.
  const std::shared_ptr<const HierarchicalDisassembler> old_power =
      current->power_model();
  const std::shared_ptr<const HierarchicalDisassembler> old_em =
      current->em_model();
  std::shared_ptr<const FusedDisassembler> published;
  scheduler.set_publisher(
      [&](std::shared_ptr<const HierarchicalDisassembler> em_model,
          std::uint64_t stamp) {
        published = std::make_shared<const FusedDisassembler>(
            FusedDisassembler(current->power_model(), std::move(em_model),
                              current->group_fusion(),
                              current->instruction_fusion()));
        fleet.swap_stage(id, runtime::make_stage(published, stamp, /*scored=*/true));
      });

  runtime::DriftMonitor monitor{world().em};
  runtime::DriftEvent event;
  event.trigger = runtime::DriftTrigger::kFeatureShift;
  const runtime::RecalOutcome outcome = scheduler.on_drift(event, monitor);
  ASSERT_TRUE(outcome.performed) << outcome.reason;
  ASSERT_NE(published, nullptr);
  // Power channel untouched, EM channel replaced, and the stream serves on.
  EXPECT_EQ(published->power_model(), old_power);
  EXPECT_NE(published->em_model(), old_em);
  EXPECT_EQ(monitor.model(), published->em_model());
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.submit(id, world().probes[i]).accepted());
  }
  const std::vector<runtime::FleetResult> results = fleet.close_stream(id);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) EXPECT_EQ(r.model_stamp, outcome.stamp);
  EXPECT_EQ(fleet.stats().runtime.model_swaps, 1u);
  EXPECT_EQ(scheduler.recalibrations(), 1u);
  EXPECT_EQ(scheduler.events(), 1u);
}

}  // namespace
}  // namespace sidis
