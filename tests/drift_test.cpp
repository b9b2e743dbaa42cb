// Drift-detection + self-scheduled recalibration battery.
//
// Statistical contract tests for runtime::DriftMonitor (bounded false-alarm
// rate on stationary streams, bounded detection latency under injected
// gain/offset/thermal/aging drift, trigger attribution, warmup/cooldown
// discipline) and runtime::RecalibrationScheduler (budget enforcement,
// registry publication with coherent stage stamps, accuracy recovery through
// the hot-swap path), plus bit-determinism of the whole loop across worker
// counts.  Synthetic-stream tests draw iid Gaussian feature vectors straight
// from the model's persisted training moments, so every threshold is
// exercised in the calibrated units it is specified in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <thread>

#include "avr/grouping.hpp"
#include "avr/program.hpp"
#include "core/csa.hpp"
#include "core/serialize.hpp"
#include "runtime/drift.hpp"
#include "runtime/fleet.hpp"
#include "runtime/recal.hpp"
#include "runtime/registry.hpp"
#include "sim/acquisition.hpp"

namespace sidis::runtime {
namespace {

// -- shared model fixture ----------------------------------------------------

core::HierarchicalConfig small_config() {
  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  return cfg;
}

const std::vector<std::size_t>& drift_classes() {
  static const std::vector<std::size_t> classes = {
      *avr::class_index(avr::Mnemonic::kAdd), *avr::class_index(avr::Mnemonic::kLdi),
      *avr::class_index(avr::Mnemonic::kCom)};
  return classes;
}

core::ProfilingData profile_clean(std::size_t per_class) {
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng{17};
  core::ProfilingData data;
  for (std::size_t cls : drift_classes()) {
    data.classes[cls] = campaign.capture_class(cls, per_class, 5, rng);
  }
  return data;
}

class DriftFixture : public ::testing::Test {
 protected:
  /// One trained 3-class model with calibrated reject gates, shared across
  /// the suite (training dominates the battery's runtime).
  static std::shared_ptr<const core::HierarchicalDisassembler> model() {
    static const std::shared_ptr<const core::HierarchicalDisassembler> m = [] {
      const core::ProfilingData data = profile_clean(50);
      auto trained = std::make_shared<core::HierarchicalDisassembler>(
          core::HierarchicalDisassembler::train(data, small_config()));
      core::RejectConfig rc;
      rc.margin_quantile = 0.02;
      rc.score_quantile = 0.02;
      trained->calibrate_reject(data, rc);
      return std::static_pointer_cast<const core::HierarchicalDisassembler>(trained);
    }();
    return m;
  }

  static const core::FeatureMoments& moments() { return model()->training_moments(); }

  /// Add/Adc/Sub share one instruction group, so the group level of this
  /// model degenerates to a constant and its monitor level is the
  /// instruction level.
  static std::shared_ptr<const core::HierarchicalDisassembler> same_group_model() {
    static const std::shared_ptr<const core::HierarchicalDisassembler> m = [] {
      sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
      std::mt19937_64 rng{37};
      core::ProfilingData data;
      for (avr::Mnemonic mn :
           {avr::Mnemonic::kAdd, avr::Mnemonic::kAdc, avr::Mnemonic::kSub}) {
        data.classes[*avr::class_index(mn)] =
            campaign.capture_class(*avr::class_index(mn), 20, 3, rng);
      }
      return std::make_shared<const core::HierarchicalDisassembler>(
          core::HierarchicalDisassembler::train(data, small_config()));
    }();
    return m;
  }

  /// Draws one iid Gaussian feature vector from the training moments, with a
  /// per-feature mean shift of `shift_sigma` training sigmas and the
  /// training stddev scaled by `spread`.
  static linalg::Vector synthetic_vector(std::mt19937_64& rng, double shift_sigma,
                                         double spread) {
    const core::FeatureMoments& m = moments();
    linalg::Vector v(m.mean.size());
    std::normal_distribution<double> unit(0.0, 1.0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double sigma = std::sqrt(m.variance[i]);
      v[i] = m.mean[i] + shift_sigma * sigma + spread * sigma * unit(rng);
    }
    return v;
  }
};

// -- training moments & serialization ---------------------------------------

TEST_F(DriftFixture, TrainingMomentsPopulatedWithMonitorDimension) {
  ASSERT_TRUE(model()->has_training_moments());
  const core::FeatureMoments& m = moments();
  EXPECT_EQ(m.mean.size(), m.variance.size());
  EXPECT_EQ(m.count, 150u);  // 3 classes x 50 traces
  // Monitor space = the group level here (3 distinct groups -> non-trivial),
  // truncated to group_components.
  EXPECT_EQ(m.mean.size(), small_config().group_components);
  for (double v : m.variance) EXPECT_GE(v, 0.0);
}

TEST_F(DriftFixture, MonitorFeaturesMatchMomentSpace) {
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng{29};
  const sim::TraceSet probe = campaign.capture_class(drift_classes()[0], 1, 1, rng);
  const linalg::Vector f = model()->monitor_features(probe.front());
  EXPECT_EQ(f.size(), moments().mean.size());
}

TEST_F(DriftFixture, MomentsSurviveSerializeRoundTripBitExactly) {
  std::stringstream ss;
  core::save_disassembler(ss, *model());
  const core::HierarchicalDisassembler loaded = core::load_disassembler(ss);
  ASSERT_TRUE(loaded.has_training_moments());
  const core::FeatureMoments& a = moments();
  const core::FeatureMoments& b = loaded.training_moments();
  EXPECT_EQ(a.count, b.count);
  ASSERT_EQ(a.mean.size(), b.mean.size());
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    EXPECT_EQ(a.mean[i], b.mean[i]) << "mean[" << i << "] not bit-equal";
    EXPECT_EQ(a.variance[i], b.variance[i]) << "variance[" << i << "] not bit-equal";
  }
}

TEST_F(DriftFixture, ArchiveWithoutMomentsIsRefused) {
  std::stringstream ss;
  core::save_disassembler(ss, *model());
  const std::string archive = ss.str();
  // A trained model never loads without its moments: neither from a v2
  // archive, which predates them, nor from one cut before its trailer.
  std::string v2 = archive;
  const std::string current_header = "sidis-template 5\n";
  ASSERT_EQ(v2.rfind(current_header, 0), 0u);
  v2.replace(0, current_header.size(), "sidis-template 2\n");
  std::stringstream old(v2);
  EXPECT_THROW(core::load_disassembler(old), std::runtime_error);
  const std::size_t trailer = archive.find("training_moments");
  ASSERT_NE(trailer, std::string::npos);
  std::stringstream cut(archive.substr(0, trailer));
  EXPECT_THROW(core::load_disassembler(cut), std::runtime_error);
}

TEST_F(DriftFixture, SingleClassModelHasNoMomentsAndMonitorRefusesIt) {
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng{31};
  core::ProfilingData data;
  data.classes[drift_classes()[0]] =
      campaign.capture_class(drift_classes()[0], 12, 2, rng);
  const auto solo = std::make_shared<const core::HierarchicalDisassembler>(
      core::HierarchicalDisassembler::train(data, small_config()));
  // Every level is trivial: no pipeline anywhere, hence no monitor space.
  EXPECT_FALSE(solo->has_training_moments());
  EXPECT_THROW(DriftMonitor{solo}, std::invalid_argument);
}

TEST_F(DriftFixture, SameGroupModelFallsBackToInstructionLevelMoments) {
  // The group level degenerates to a constant; the moments must come from
  // the instruction level instead.
  ASSERT_TRUE(same_group_model()->has_training_moments());
  EXPECT_EQ(same_group_model()->training_moments().mean.size(),
            small_config().instruction_components);
}

TEST_F(DriftFixture, ClassifyMonitoredKeepsMonitorFeaturesBitForBit) {
  // The walk's kept features are monitor_features() to the last bit, whether
  // the monitor level is the group level or (single-group model) the
  // instruction level, on one window and on a batch, plain and scored; every
  // other field matches the plain entry points, which keep no features.
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng{43};
  sim::TraceSet windows;
  for (avr::Mnemonic mn : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kCom,
                           avr::Mnemonic::kAdc, avr::Mnemonic::kSub}) {
    for (sim::Trace& t : campaign.capture_class(*avr::class_index(mn), 3, 2, rng)) {
      windows.push_back(std::move(t));
    }
  }
  const auto same_bits = [](const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  for (const auto& m : {model(), same_group_model()}) {
    for (const bool scored : {false, true}) {
      SCOPED_TRACE(scored ? "scored" : "plain");
      const std::vector<core::Disassembly> kept = m->classify_monitored(windows, scored);
      const std::vector<core::Disassembly> plain =
          scored ? m->classify_batch_scored(windows) : m->classify_batch(windows);
      ASSERT_EQ(kept.size(), windows.size());
      for (std::size_t i = 0; i < windows.size(); ++i) {
        const linalg::Vector want = m->monitor_features(windows[i]);
        ASSERT_EQ(want.size(), m->training_moments().mean.size());
        EXPECT_TRUE(same_bits(kept[i].monitor_features, want)) << "batch window " << i;
        const core::Disassembly one = m->classify_monitored({&windows[i], 1}, scored).front();
        EXPECT_TRUE(same_bits(one.monitor_features, want)) << "single window " << i;
        EXPECT_TRUE(plain[i].monitor_features.empty());
        EXPECT_EQ(kept[i].class_idx, plain[i].class_idx);
        EXPECT_EQ(kept[i].group, plain[i].group);
        EXPECT_EQ(kept[i].verdict, plain[i].verdict);
        EXPECT_TRUE(same_bits({kept[i].margin_headroom}, {plain[i].margin_headroom}));
        EXPECT_TRUE(same_bits({kept[i].score_headroom}, {plain[i].score_headroom}));
        EXPECT_TRUE(same_bits(kept[i].log_posterior, plain[i].log_posterior));
      }
    }
  }
}

TEST_F(DriftFixture, SameGroupModelFleetStreamFoldsTheWalkFeatures) {
  // A monitor_drift stream of the single-group model folds the instruction
  // level's walk features: no window is re-transformed, and the events match
  // a reference monitor that re-transforms every delivered window.
  sim::DeviceModel aged = sim::DeviceModel::make(0);
  aged.aging_gain_drift = 0.35;
  const sim::AcquisitionCampaign drifting{aged, sim::SessionContext::make(0)};
  std::mt19937_64 rng{47};
  sim::TraceSet windows;
  const std::vector<avr::Mnemonic> mnemonics = {avr::Mnemonic::kAdd, avr::Mnemonic::kAdc,
                                                avr::Mnemonic::kSub};
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t cls = *avr::class_index(mnemonics[i % mnemonics.size()]);
    windows.push_back(drifting.capture_trace(avr::random_instance(cls, rng, {}),
                                             sim::ProgramContext::make(0), rng,
                                             static_cast<double>(i) / 199.0));
  }
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 2;
  cfg.stream_credit = 16;
  cfg.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(same_group_model(), cfg);
  StreamOptions options;
  options.monitor_drift = true;
  const auto id = fleet.open_stream(options);
  DriftMonitor reference(same_group_model());
  std::vector<std::uint64_t> fleet_events, reference_events;
  std::size_t delivered = 0;
  const auto deliver = [&](const FleetResult& r) {
    EXPECT_TRUE(r.value.monitor_features.empty());
    reference.observe(windows[r.stream_sequence], r.value);
    if (auto e = reference.poll_event()) reference_events.push_back(e->observation);
    ++delivered;
  };
  for (const sim::Trace& t : windows) {
    ASSERT_TRUE(fleet.submit(id, t).accepted());
    while (auto r = fleet.poll(id)) deliver(*r);
    while (auto e = fleet.poll_drift_event(id)) fleet_events.push_back(e->observation);
  }
  while (delivered < windows.size()) {
    if (auto r = fleet.poll(id)) {
      deliver(*r);
    } else {
      std::this_thread::yield();
    }
  }
  while (auto e = fleet.poll_drift_event(id)) fleet_events.push_back(e->observation);
  fleet.close_stream(id);
  EXPECT_FALSE(reference_events.empty()) << "no drift event: test proves nothing";
  EXPECT_EQ(fleet_events, reference_events);
  const RuntimeStats stats = fleet.stats().runtime;
  EXPECT_EQ(stats.monitor_folds, windows.size());
  EXPECT_EQ(stats.monitor_retransforms, 0u);
}

// -- synthetic-stream statistics --------------------------------------------

TEST_F(DriftFixture, StationaryStreamsHoldFalseAlarmBudget) {
  // 50 independent stationary streams drawn straight from the training
  // moments; the battery's false-alarm budget is at most 1 stream raising
  // any event over 300 observations.
  std::size_t streams_with_alarm = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    DriftMonitor monitor(model());
    std::mt19937_64 rng{0xa1a20000 + seed};
    bool alarmed = false;
    for (int i = 0; i < 300; ++i) {
      monitor.observe_features(synthetic_vector(rng, 0.0, 1.0), false);
      if (monitor.poll_event()) alarmed = true;
    }
    streams_with_alarm += alarmed ? 1 : 0;
  }
  EXPECT_LE(streams_with_alarm, 1u)
      << "false-alarm rate above budget on stationary streams";
}

TEST_F(DriftFixture, TwoSigmaMeanShiftDetectedWithinLatencyBudget) {
  DriftMonitor monitor(model());
  std::mt19937_64 rng{0xd41f7};
  const int onset = 100;
  std::optional<DriftEvent> event;
  int detected_at = -1;
  for (int i = 0; i < onset + 80 && !event; ++i) {
    const double shift = i >= onset ? 2.0 : 0.0;
    monitor.observe_features(synthetic_vector(rng, shift, 1.0), false);
    event = monitor.poll_event();
    if (event) detected_at = i;
  }
  ASSERT_TRUE(event.has_value()) << "2-sigma shift never detected";
  EXPECT_EQ(event->trigger, DriftTrigger::kFeatureShift);
  EXPECT_GE(detected_at, onset) << "alarm before the drift even started";
  EXPECT_LE(detected_at - onset, 40) << "detection latency above budget";
  EXPECT_GE(event->z_rms, monitor.config().z_threshold);
}

TEST_F(DriftFixture, VarianceInflationTriggersSpreadStatistic) {
  // Doubling every stddev leaves the means in place: z_rms stays near 2
  // (below the 3.5 gate) while the symmetric KL climbs past 1 nat.
  DriftMonitor monitor(model());
  std::mt19937_64 rng{0x5bead};
  std::optional<DriftEvent> event;
  for (int i = 0; i < 400 && !event; ++i) {
    const double spread = i >= 100 ? 2.0 : 1.0;
    monitor.observe_features(synthetic_vector(rng, 0.0, spread), false);
    event = monitor.poll_event();
  }
  ASSERT_TRUE(event.has_value()) << "variance inflation never detected";
  EXPECT_EQ(event->trigger, DriftTrigger::kFeatureSpread);
  EXPECT_GE(event->symmetric_kl, monitor.config().kl_threshold);
}

TEST_F(DriftFixture, WarmupSuppressesImmediateAlarms) {
  DriftConfig cfg;
  cfg.warmup = 50;
  DriftMonitor monitor(model(), cfg);
  std::mt19937_64 rng{0x3aa3};
  // Grossly shifted from the very first observation: nothing may fire
  // within the warmup window.
  for (std::size_t i = 0; i < cfg.warmup; ++i) {
    monitor.observe_features(synthetic_vector(rng, 10.0, 1.0), false);
    EXPECT_FALSE(monitor.poll_event().has_value())
        << "event fired during warmup at observation " << i;
  }
  for (int i = 0; i < 20; ++i) {
    monitor.observe_features(synthetic_vector(rng, 10.0, 1.0), false);
  }
  EXPECT_TRUE(monitor.poll_event().has_value())
      << "shift not detected once warmup passed";
}

TEST_F(DriftFixture, SingleOutlierWindowDoesNotRaise) {
  // One 4-sigma window nudges the EWMA mean by only alpha * 4 sigma and the
  // EWMA variance by well under the 2x the KL gate corresponds to, so an
  // isolated glitch must not burn a recalibration event.  (A *wild* single
  // window -- tens of sigma -- IS a distribution change worth flagging; the
  // fault layer models those as burst noise.)
  DriftMonitor monitor(model());
  std::mt19937_64 rng{0x0071e4};
  for (int i = 0; i < 100; ++i) {
    monitor.observe_features(synthetic_vector(rng, 0.0, 1.0), false);
  }
  monitor.observe_features(synthetic_vector(rng, 4.0, 1.0), false);
  for (int i = 0; i < 150; ++i) {
    monitor.observe_features(synthetic_vector(rng, 0.0, 1.0), false);
    EXPECT_FALSE(monitor.poll_event().has_value())
        << "a single outlier window raised a drift event";
  }
}

TEST_F(DriftFixture, ConsecutiveRequirementGatesTheAlarm) {
  // The same sustained drift fires with the default streak requirement and
  // must NOT fire when the requirement is unattainable.
  DriftConfig strict;
  strict.consecutive = 1000000;
  DriftMonitor gated(model(), strict);
  DriftMonitor standard(model());
  std::mt19937_64 rng_a{0xc0c0};
  std::mt19937_64 rng_b{0xc0c0};
  bool standard_fired = false;
  for (int i = 0; i < 300; ++i) {
    gated.observe_features(synthetic_vector(rng_a, 3.0, 1.0), false);
    standard.observe_features(synthetic_vector(rng_b, 3.0, 1.0), false);
    EXPECT_FALSE(gated.poll_event().has_value());
    if (standard.poll_event()) standard_fired = true;
  }
  EXPECT_TRUE(standard_fired);
}

TEST_F(DriftFixture, CooldownSpacesRepeatedEvents) {
  DriftConfig cfg;
  cfg.cooldown = 100;
  DriftMonitor monitor(model(), cfg);
  std::mt19937_64 rng{0x9e37};
  std::vector<std::uint64_t> fired_at;
  for (int i = 0; i < 700; ++i) {
    // Sustained, never-recalibrated drift.
    monitor.observe_features(synthetic_vector(rng, 4.0, 1.0), false);
    if (const auto e = monitor.poll_event()) fired_at.push_back(e->observation);
  }
  ASSERT_GE(fired_at.size(), 2u) << "sustained drift should re-alarm";
  for (std::size_t i = 1; i < fired_at.size(); ++i) {
    EXPECT_GE(fired_at[i] - fired_at[i - 1], cfg.cooldown - cfg.warmup)
        << "events " << i - 1 << " and " << i << " closer than the cooldown";
  }
}

TEST_F(DriftFixture, RebaseResetsStatisticsAndQuietsTheMonitor) {
  DriftMonitor monitor(model());
  std::mt19937_64 rng{0xbeba5e};
  std::optional<DriftEvent> event;
  for (int i = 0; i < 300 && !event; ++i) {
    monitor.observe_features(synthetic_vector(rng, 3.0, 1.0), false);
    event = monitor.poll_event();
  }
  ASSERT_TRUE(event.has_value());
  monitor.rebase();
  EXPECT_EQ(monitor.z_rms(), 0.0);
  EXPECT_EQ(monitor.symmetric_kl(), 0.0);
  // Back on-distribution (as after a successful recalibration): quiet.
  for (int i = 0; i < 300; ++i) {
    monitor.observe_features(synthetic_vector(rng, 0.0, 1.0), false);
    EXPECT_FALSE(monitor.poll_event().has_value()) << "alarm after rebase at " << i;
  }
  EXPECT_LT(monitor.z_rms(), monitor.config().z_threshold);
}

TEST_F(DriftFixture, RejectRateTrendTriggersWhenEnabled) {
  DriftConfig cfg;
  cfg.z_threshold = 1e9;  // isolate the reject-rate trigger
  cfg.kl_threshold = 1e9;
  cfg.reject_rate_threshold = 0.5;
  DriftMonitor monitor(model(), cfg);
  std::mt19937_64 rng{0x4e11};
  std::optional<DriftEvent> event;
  int fired_at = -1;
  for (int i = 0; i < 300 && !event; ++i) {
    monitor.observe_features(synthetic_vector(rng, 0.0, 1.0), /*rejected=*/true);
    event = monitor.poll_event();
    if (event) fired_at = i;
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->trigger, DriftTrigger::kRejectRate);
  EXPECT_GE(event->reject_rate, cfg.reject_rate_threshold);
  EXPECT_LE(fired_at, 200);
}

TEST_F(DriftFixture, NonFiniteFeaturesDoNotBlindTheMonitor) {
  // A hard mean shift from observation 100 on.  One window at 60 carries a
  // NaN and an infinity (a corrupt sample spreads through the CWT): folded
  // into the EWMA, it would leave z_rms and the KL statistic NaN for good,
  // and no threshold comparison holds for NaN.  It skips the moments, still
  // feeds the reject-rate trend, and the shift is still detected.
  DriftMonitor monitor(model());
  std::mt19937_64 rng{0xbad5a};
  std::size_t events = 0;
  for (int i = 0; i < 400; ++i) {
    linalg::Vector v = synthetic_vector(rng, i >= 100 ? 3.0 : 0.0, 1.0);
    const bool poisoned = i == 60;
    if (poisoned) {
      v[0] = std::numeric_limits<double>::quiet_NaN();
      v[1] = std::numeric_limits<double>::infinity();
    }
    const double z_before = monitor.z_rms();
    monitor.observe_features(v, /*rejected=*/poisoned);
    if (poisoned) {
      EXPECT_EQ(monitor.z_rms(), z_before) << "moments moved on a non-finite vector";
      EXPECT_EQ(monitor.reject_rate(), monitor.config().reject_alpha);
    }
    if (monitor.poll_event()) ++events;
  }
  EXPECT_EQ(monitor.nonfinite_skipped(), 1u);
  EXPECT_EQ(monitor.observations(), 400u);
  EXPECT_TRUE(std::isfinite(monitor.z_rms()));
  EXPECT_TRUE(std::isfinite(monitor.symmetric_kl()));
  EXPECT_GE(events, 1u) << "one NaN window blinded the monitor";
}

TEST_F(DriftFixture, FeatureDimensionMismatchThrows) {
  DriftMonitor monitor(model());
  linalg::Vector wrong(moments().mean.size() + 1, 0.0);
  EXPECT_THROW(monitor.observe_features(wrong, false), std::invalid_argument);
}

TEST_F(DriftFixture, IdenticalStreamsProduceBitIdenticalStatistics) {
  DriftMonitor a(model());
  DriftMonitor b(model());
  std::mt19937_64 rng_a{0x7e57};
  std::mt19937_64 rng_b{0x7e57};
  for (int i = 0; i < 250; ++i) {
    const double shift = i >= 150 ? 2.5 : 0.0;
    a.observe_features(synthetic_vector(rng_a, shift, 1.0), false);
    b.observe_features(synthetic_vector(rng_b, shift, 1.0), false);
    ASSERT_EQ(a.z_rms(), b.z_rms()) << "z_rms diverged at observation " << i;
    ASSERT_EQ(a.symmetric_kl(), b.symmetric_kl());
    const auto ea = a.poll_event();
    const auto eb = b.poll_event();
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (ea) {
      EXPECT_EQ(ea->observation, eb->observation);
      EXPECT_EQ(ea->z_rms, eb->z_rms);
    }
  }
}

// -- sim aging hooks ---------------------------------------------------------

TEST(AgingHooks, AnchorsAndLinearRamp) {
  sim::DeviceModel d = sim::DeviceModel::make(0);
  EXPECT_EQ(d.aging_gain(0.7), 1.0);  // defaults off
  EXPECT_EQ(d.aging_offset(0.7), 0.0);
  d.aging_gain_drift = 0.3;
  d.aging_offset_drift = -0.05;
  EXPECT_DOUBLE_EQ(d.aging_gain(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.aging_gain(1.0), 1.3);
  EXPECT_DOUBLE_EQ(d.aging_gain(0.5), 1.15);  // linear, not saturating
  EXPECT_DOUBLE_EQ(d.aging_gain(2.0), 1.3);   // clamped
  EXPECT_DOUBLE_EQ(d.aging_offset(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.aging_offset(1.0), -0.05);
}

TEST(AgingHooks, FlowIntoEnvironmentTotals) {
  sim::DeviceModel d = sim::DeviceModel::make(0);
  d.aging_gain_drift = 0.2;
  d.aging_offset_drift = 0.04;
  sim::Environment env{d, sim::SessionContext::make(0), sim::ProgramContext::make(0),
                       /*campaign_progress=*/1.0};
  sim::Environment fresh = env;
  fresh.campaign_progress = 0.0;
  EXPECT_DOUBLE_EQ(env.total_gain() / fresh.total_gain(), 1.2);
  EXPECT_DOUBLE_EQ(env.total_offset() - fresh.total_offset(), 0.04);
}

TEST(AgingHooks, MakeNeverEnablesAging) {
  for (int id = 0; id < 8; ++id) {
    const sim::DeviceModel d = sim::DeviceModel::make(id);
    EXPECT_EQ(d.aging_gain_drift, 0.0) << "device " << id;
    EXPECT_EQ(d.aging_offset_drift, 0.0) << "device " << id;
  }
}

// -- end-to-end drift loop through a one-stream fleet -------------------------

struct LoopRecord {
  std::size_t class_idx;
  core::Verdict verdict;
  std::uint64_t model_stamp;
};

struct LoopRun {
  std::vector<LoopRecord> records;
  std::vector<std::uint64_t> event_observations;
  std::vector<RecalOutcome> outcomes;
  std::shared_ptr<const core::HierarchicalDisassembler> final_model;
  std::size_t events = 0;          ///< scheduler.events()
  std::size_t recalibrations = 0;  ///< scheduler.recalibrations()
  std::size_t traces_spent = 0;    ///< scheduler.traces_spent()
  std::uint64_t model_swaps = 0;   ///< RuntimeStats::model_swaps
  double final_z_rms = 0.0;
};

/// One shard with `workers` workers; its streams block at 16 unclassified
/// windows.
FleetConfig one_stream(std::size_t workers) {
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = workers;
  cfg.stream_credit = 16;
  cfg.admission = AdmissionPolicy::kBlock;
  return cfg;
}

/// Streams `windows` (pre-captured, drift baked into their progress ramp)
/// through a one-stream fleet in batches, observing every emission in order and
/// recalibrating on drift events -- the canonical deployment loop.  All
/// randomness is pre-seeded, swaps happen only at batch boundaries, and the
/// monitor consumes in emission order, so the run is a pure function of its
/// inputs at any worker count.
LoopRun run_drift_loop(const sim::TraceSet& windows,
                       const sim::AcquisitionCampaign& recal_campaign,
                       std::size_t workers, RecalPolicy policy,
                       ModelRegistry* registry,
                       std::shared_ptr<const core::HierarchicalDisassembler> model,
                       DriftConfig drift_cfg = {}) {
  LoopRun run;
  FleetFrontend fleet(model, one_stream(workers));
  const auto id = fleet.open_stream();
  DriftMonitor monitor(model, drift_cfg);
  CampaignCalibrationSource source(recal_campaign, drift_classes(), 3, 0xca1b5eed);
  RecalibrationScheduler scheduler(fleet, id, model, source, policy, registry);

  constexpr std::size_t kBatch = 16;
  for (std::size_t base = 0; base < windows.size(); base += kBatch) {
    const std::size_t end = std::min(windows.size(), base + kBatch);
    for (std::size_t i = base; i < end; ++i) {
      if (!fleet.submit(id, windows[i]).accepted()) break;
    }
    std::size_t emitted = base;
    while (emitted < end) {
      std::optional<FleetResult> r = fleet.poll(id);
      if (!r) {
        std::this_thread::yield();
        continue;
      }
      const sim::Trace& trace = windows[r->stream_sequence];
      monitor.observe(trace, r->value);
      run.records.push_back(
          LoopRecord{r->value.class_idx, r->value.verdict, r->model_stamp});
      ++emitted;
    }
    // Drift handling at the batch boundary: the stream is idle here, so the
    // published stage applies to a deterministic window range.
    if (const auto event = monitor.poll_event()) {
      run.event_observations.push_back(event->observation);
      // The recal corpus must reflect the device state "now".
      const double progress =
          windows.empty() ? 0.0
                          : static_cast<double>(end - 1) /
                                static_cast<double>(windows.size() - 1);
      source.set_progress(progress);
      run.outcomes.push_back(scheduler.on_drift(*event, monitor));
    }
  }
  for (FleetResult& r : fleet.close_stream(id)) {
    run.records.push_back(
        LoopRecord{r.value.class_idx, r.value.verdict, r.model_stamp});
  }
  run.final_model = scheduler.active_model();
  run.events = scheduler.events();
  run.recalibrations = scheduler.recalibrations();
  run.traces_spent = scheduler.traces_spent();
  run.model_swaps = fleet.stats().runtime.model_swaps;
  run.final_z_rms = monitor.z_rms();
  return run;
}

/// Captures `n` windows on `campaign` with classes interleaved round-robin
/// (stable class mixture -- the monitor watches pooled moments) and campaign
/// progress ramping 0 -> 1 across the stream.
sim::TraceSet drifting_stream(const sim::AcquisitionCampaign& campaign, std::size_t n,
                              std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  sim::TraceSet out;
  out.reserve(n);
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cls = drift_classes()[i % drift_classes().size()];
    const sim::ProgramContext prog = sim::ProgramContext::make(static_cast<int>(i % 4));
    out.push_back(campaign.capture_trace(avr::random_instance(cls, rng, {}), prog, rng,
                                         static_cast<double>(i) / denom));
  }
  return out;
}

double accuracy_against_meta(const core::HierarchicalDisassembler& m,
                             const sim::TraceSet& windows) {
  std::size_t hits = 0;
  for (const sim::Trace& t : windows) {
    if (m.classify(t).class_idx == t.meta.class_idx) ++hits;
  }
  return windows.empty() ? 0.0
                         : static_cast<double>(hits) / static_cast<double>(windows.size());
}

class DriftLoopFixture : public DriftFixture {
 protected:
  static sim::DeviceModel aged_device(double gain_drift, double offset_drift) {
    sim::DeviceModel d = sim::DeviceModel::make(0);
    d.aging_gain_drift = gain_drift;
    d.aging_offset_drift = offset_drift;
    return d;
  }

  static RecalPolicy default_policy() {
    RecalPolicy p;
    p.traces_per_class = 6;
    p.trace_budget = 72;  // four rounds of 6 x 3 classes
    return p;
  }

  /// Drives a persistent synthetic mean shift through monitor + scheduler
  /// until `events` alarms have been consumed; returns the outcomes in
  /// order.  The shift survives every renorm publish (the fed vectors stay
  /// displaced from the training moments no matter what the pipeline scalers
  /// do), so the monitor re-fires as soon as its own cooldown allows -- the
  /// exact situation the escalation policy exists for.
  static std::vector<RecalOutcome> run_escalation_loop(
      RecalPolicy policy, const core::ProfilingData& base, std::size_t events) {
    sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                   sim::SessionContext::make(0)};
    FleetFrontend fleet(model(), one_stream(1));
    CampaignCalibrationSource source(clean, drift_classes(), 3, 0xe5ca1a7e);
    RecalibrationScheduler scheduler(fleet, fleet.open_stream(), model(), source,
                                     policy, nullptr, &base);
    DriftMonitor monitor(model());
    std::mt19937_64 rng{0x5ca1e};
    std::vector<RecalOutcome> outcomes;
    for (std::size_t fed = 0; outcomes.size() < events && fed < 4000; ++fed) {
      monitor.observe_features(synthetic_vector(rng, 1.5, 1.0), false);
      if (const auto event = monitor.poll_event()) {
        outcomes.push_back(scheduler.on_drift(*event, monitor));
      }
    }
    return outcomes;
  }
};

TEST_F(DriftLoopFixture, CleanStreamRaisesNoEventsAndSpendsNothing) {
  sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                 sim::SessionContext::make(0)};
  const sim::TraceSet windows = drifting_stream(clean, 240, 0xc1ea0);
  const LoopRun run =
      run_drift_loop(windows, clean, 2, default_policy(), nullptr, model());
  EXPECT_TRUE(run.event_observations.empty())
      << "stationary stream raised " << run.event_observations.size() << " event(s)";
  EXPECT_EQ(run.events, 0u);
  EXPECT_EQ(run.traces_spent, 0u);
  EXPECT_EQ(run.model_swaps, 0u);
  EXPECT_EQ(run.records.size(), windows.size());
}

TEST_F(DriftLoopFixture, AgingGainDriftDetectedRecalibratedAndRecovered) {
  sim::AcquisitionCampaign drifting{aged_device(0.25, 0.0),
                                    sim::SessionContext::make(0)};
  const sim::TraceSet windows = drifting_stream(drifting, 360, 0xa61713);
  const LoopRun run =
      run_drift_loop(windows, drifting, 2, default_policy(), nullptr, model());

  ASSERT_GE(run.event_observations.size(), 1u) << "gain drift never detected";
  // Detection latency: the ramp reaches ~half its magnitude mid-stream; the
  // first alarm must land in the front half, not after the damage is done.
  EXPECT_LE(run.event_observations.front(), windows.size() * 3 / 4);
  ASSERT_GE(run.outcomes.size(), 1u);
  EXPECT_TRUE(run.outcomes.front().performed);
  EXPECT_GT(run.recalibrations, 0u);
  EXPECT_EQ(run.model_swaps, run.recalibrations);
  EXPECT_LE(run.traces_spent, default_policy().trace_budget);

  // Recovery: the final published model, on fresh fully-drifted windows,
  // classifies within 2 points of the clean model on clean windows.
  sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                 sim::SessionContext::make(0)};
  sim::TraceSet eval_clean;
  sim::TraceSet eval_drifted;
  {
    std::mt19937_64 rng_a{0xe7a1};
    std::mt19937_64 rng_b{0xe7a1};
    for (std::size_t i = 0; i < 75; ++i) {
      const std::size_t cls = drift_classes()[i % drift_classes().size()];
      const sim::ProgramContext prog =
          sim::ProgramContext::make(static_cast<int>(i % 4));
      eval_clean.push_back(
          clean.capture_trace(avr::random_instance(cls, rng_a, {}), prog, rng_a, 0.0));
      eval_drifted.push_back(drifting.capture_trace(avr::random_instance(cls, rng_b, {}),
                                                    prog, rng_b, 1.0));
    }
  }
  const double clean_acc = accuracy_against_meta(*model(), eval_clean);
  const double drifted_acc_stale = accuracy_against_meta(*model(), eval_drifted);
  const double drifted_acc_recal = accuracy_against_meta(*run.final_model, eval_drifted);
  EXPECT_GE(drifted_acc_recal, clean_acc - 0.02)
      << "post-recalibration accuracy did not recover (clean " << clean_acc
      << ", stale " << drifted_acc_stale << ", recalibrated " << drifted_acc_recal
      << ")";
}

TEST_F(DriftLoopFixture, PureOffsetDriftIsDcBlindAndHarmless) {
  // A constant offset is pure DC, and the CWT feature bank is band-pass: the
  // monitor features barely move AND classification is unharmed.  The right
  // behavior is therefore *no* alarm -- spending labeled traces on a shift
  // the classifier cannot see would be waste.  (Offset combined with gain
  // drift rides along with the gain detection, covered above.)
  sim::AcquisitionCampaign drifting{aged_device(0.0, 0.12),
                                    sim::SessionContext::make(0)};
  const sim::TraceSet windows = drifting_stream(drifting, 360, 0x0ff5e7);
  const LoopRun run =
      run_drift_loop(windows, drifting, 2, default_policy(), nullptr, model());
  EXPECT_TRUE(run.event_observations.empty())
      << "DC-only drift raised an alarm the classifier cannot benefit from";
  // Back the "harmless" claim with accuracy: stale model, fully drifted eval.
  std::mt19937_64 rng{0x0ffe7a};
  sim::TraceSet eval;
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t cls = drift_classes()[i % drift_classes().size()];
    eval.push_back(drifting.capture_trace(
        avr::random_instance(cls, rng, {}),
        sim::ProgramContext::make(static_cast<int>(i % 4)), rng, 1.0));
  }
  EXPECT_GE(accuracy_against_meta(*model(), eval), 0.95)
      << "offset drift hurt accuracy after all -- the no-alarm contract is wrong";
}

TEST_F(DriftLoopFixture, ThermalDriftDetected) {
  sim::DeviceModel warm = sim::DeviceModel::make(0);
  warm.thermal_drift = 0.35;  // saturating warm-up instead of linear aging
  sim::AcquisitionCampaign drifting{warm, sim::SessionContext::make(0)};
  const sim::TraceSet windows = drifting_stream(drifting, 360, 0x7e4a1);
  const LoopRun run =
      run_drift_loop(windows, drifting, 2, default_policy(), nullptr, model());
  ASSERT_GE(run.event_observations.size(), 1u) << "thermal drift never detected";
  // The warm-up front-loads the drift, so detection should come early.
  EXPECT_LE(run.event_observations.front(), windows.size() / 2);
}

TEST_F(DriftLoopFixture, SchedulerStopsSpendingAtTheBudget) {
  sim::AcquisitionCampaign drifting{aged_device(0.35, 0.0),
                                    sim::SessionContext::make(0)};
  const sim::TraceSet windows = drifting_stream(drifting, 420, 0xb0d6e7);
  RecalPolicy tight = default_policy();
  tight.traces_per_class = 4;
  tight.trace_budget = 12;  // exactly one 4 x 3 round
  DriftConfig eager;
  eager.cooldown = 40;  // re-alarm quickly so the budget gate is exercised
  const LoopRun run =
      run_drift_loop(windows, drifting, 2, tight, nullptr, model(), eager);

  ASSERT_GE(run.outcomes.size(), 2u)
      << "drift persisted but the monitor re-alarmed fewer than twice";
  EXPECT_TRUE(run.outcomes.front().performed);
  for (std::size_t i = 1; i < run.outcomes.size(); ++i) {
    EXPECT_FALSE(run.outcomes[i].performed) << "budget-exceeding recal " << i;
  }
  EXPECT_EQ(run.recalibrations, 1u);
  EXPECT_EQ(run.traces_spent, 12u);
  EXPECT_EQ(run.events, run.outcomes.size());
}

TEST_F(DriftLoopFixture, RegistryPublicationStampsResultsCoherently) {
  const auto root = std::filesystem::path(::testing::TempDir()) / "sidis_drift_reg";
  std::filesystem::remove_all(root);
  ModelRegistry registry(root);

  sim::AcquisitionCampaign drifting{aged_device(0.3, 0.0),
                                    sim::SessionContext::make(0)};
  const sim::TraceSet windows = drifting_stream(drifting, 360, 0x5e61);
  const LoopRun run =
      run_drift_loop(windows, drifting, 2, default_policy(), &registry, model());

  ASSERT_GE(run.outcomes.size(), 1u);
  const RecalOutcome& first = run.outcomes.front();
  ASSERT_TRUE(first.performed);
  EXPECT_EQ(first.registry_version, 1);
  // The published stamp is the stored artifact's checksum -- verify against
  // the registry's own integrity check.
  const ArtifactInfo info = registry.info(default_policy().registry_name, 1);
  EXPECT_EQ(first.stamp, info.checksum);
  EXPECT_NE(first.stamp, 0u);

  // Every result is stamped with the stage that classified it: stamp 0
  // before the first publication, the artifact checksum afterwards, with a
  // single switch point (batch-boundary swaps -> no interleaving).
  std::size_t switch_count = 0;
  for (std::size_t i = 1; i < run.records.size(); ++i) {
    if (run.records[i].model_stamp != run.records[i - 1].model_stamp) ++switch_count;
  }
  EXPECT_EQ(run.records.front().model_stamp, 0u);
  EXPECT_EQ(switch_count, run.outcomes.size() -
                              static_cast<std::size_t>(std::count_if(
                                  run.outcomes.begin(), run.outcomes.end(),
                                  [](const RecalOutcome& o) { return !o.performed; })));
  // The registry round-trips the published model bit-exactly.
  const core::HierarchicalDisassembler reloaded =
      registry.load(default_policy().registry_name, 1);
  EXPECT_TRUE(reloaded.has_training_moments());
}

TEST_F(DriftLoopFixture, LoopIsBitIdenticalAcrossWorkerCounts) {
  sim::AcquisitionCampaign drifting{aged_device(0.28, 0.0),
                                    sim::SessionContext::make(0)};
  const sim::TraceSet windows = drifting_stream(drifting, 300, 0xd37e6);

  std::vector<LoopRun> runs;
  for (std::size_t workers : {1u, 2u, 8u}) {
    runs.push_back(
        run_drift_loop(windows, drifting, workers, default_policy(), nullptr, model()));
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    SCOPED_TRACE("worker variant " + std::to_string(w));
    ASSERT_EQ(runs[w].records.size(), runs[0].records.size());
    for (std::size_t i = 0; i < runs[0].records.size(); ++i) {
      ASSERT_EQ(runs[w].records[i].class_idx, runs[0].records[i].class_idx)
          << "class diverged at window " << i;
      ASSERT_EQ(runs[w].records[i].verdict, runs[0].records[i].verdict);
      ASSERT_EQ(runs[w].records[i].model_stamp, runs[0].records[i].model_stamp);
    }
    EXPECT_EQ(runs[w].event_observations, runs[0].event_observations);
    EXPECT_EQ(runs[w].traces_spent, runs[0].traces_spent);
    EXPECT_EQ(runs[w].final_z_rms, runs[0].final_z_rms) << "z_rms not bit-identical";
  }
}

TEST_F(DriftLoopFixture, RefitModeNeedsABaseCorpusAndThenWorks) {
  sim::AcquisitionCampaign drifting{aged_device(0.3, 0.0),
                                    sim::SessionContext::make(0)};
  FleetFrontend fleet(model(), one_stream(1));
  const auto id = fleet.open_stream();
  CampaignCalibrationSource source(drifting, drift_classes(), 3, 0xf17);
  RecalPolicy refit = default_policy();
  refit.mode = core::RecalMode::kRefit;
  EXPECT_THROW(RecalibrationScheduler(fleet, id, model(), source, refit),
               std::invalid_argument);

  const core::ProfilingData base = profile_clean(20);
  RecalibrationScheduler scheduler(fleet, id, model(), source, refit, nullptr, &base);
  DriftMonitor monitor(model());
  source.set_progress(1.0);
  DriftEvent event;  // contents are telemetry-only; any event drives the path
  const RecalOutcome outcome = scheduler.on_drift(event, monitor);
  ASSERT_TRUE(outcome.performed) << outcome.reason;
  EXPECT_EQ(outcome.traces_spent, refit.traces_per_class * drift_classes().size());
  // The refit model still answers and kept its moments (the monitor rebased
  // onto it without throwing).
  EXPECT_TRUE(scheduler.active_model()->has_training_moments());
  EXPECT_EQ(monitor.observations(), 0u);  // rebased
}

TEST_F(DriftLoopFixture, RenormEscalatesToRefitWhenTheAlarmRefiresBackToBack) {
  const core::ProfilingData base = profile_clean(20);
  RecalPolicy policy = default_policy();
  policy.escalate_to_refit = true;

  // The escalation arm runs refit_classifiers, so the base corpus is as
  // mandatory as for mode == kRefit.
  {
    sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                   sim::SessionContext::make(0)};
    FleetFrontend fleet(model(), one_stream(1));
    CampaignCalibrationSource source(clean, drift_classes(), 3, 0xe5);
    EXPECT_THROW(RecalibrationScheduler(fleet, fleet.open_stream(), model(), source,
                                        policy),
                 std::invalid_argument);
  }

  const std::vector<RecalOutcome> outcomes = run_escalation_loop(policy, base, 2);
  ASSERT_EQ(outcomes.size(), 2u) << "persistent shift re-alarmed fewer than twice";
  // First event: the cheap arm, as configured.
  EXPECT_TRUE(outcomes[0].performed) << outcomes[0].reason;
  EXPECT_EQ(outcomes[0].mode, core::RecalMode::kRenorm);
  EXPECT_FALSE(outcomes[0].escalated);
  // Second event fires at the rebased monitor's earliest honest moment --
  // inside the default escalation window -- so the scheduler concludes the
  // renorm did not take and runs the refit arm instead.
  EXPECT_TRUE(outcomes[1].performed) << outcomes[1].reason;
  EXPECT_EQ(outcomes[1].mode, core::RecalMode::kRefit);
  EXPECT_TRUE(outcomes[1].escalated);
}

TEST_F(DriftLoopFixture, EscalationWindowBoundsWhatCountsAsBackToBack) {
  const core::ProfilingData base = profile_clean(20);
  RecalPolicy policy = default_policy();
  policy.escalate_to_refit = true;
  // Earliest honest re-fire after a rebase is cooldown (64) observations
  // away; a 10-observation window therefore never classifies it as
  // back-to-back, and the policy's configured arm keeps running.
  policy.escalation_window = 10;

  const std::vector<RecalOutcome> outcomes = run_escalation_loop(policy, base, 2);
  ASSERT_EQ(outcomes.size(), 2u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].performed) << outcomes[i].reason;
    EXPECT_EQ(outcomes[i].mode, core::RecalMode::kRenorm) << "event " << i;
    EXPECT_FALSE(outcomes[i].escalated) << "event " << i;
  }
}

}  // namespace
}  // namespace sidis::runtime
