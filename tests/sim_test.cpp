// Tests for the side-channel substrate: environment models, power synthesis,
// the scope front-end and the acquisition campaign.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "avr/assembler.hpp"
#include "avr/cpu.hpp"
#include "dsp/signal.hpp"
#include "sim/acquisition.hpp"
#include "sim/hash.hpp"

namespace sidis::sim {
namespace {

TEST(Hash, DeterministicAndSpread) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
  const double u = hash_unit(splitmix64(7));
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
  EXPECT_GE(hash_range(splitmix64(9), 2.0, 5.0), 2.0);
  EXPECT_LT(hash_range(splitmix64(9), 2.0, 5.0), 5.0);
}

TEST(Hash, HammingHelpers) {
  EXPECT_EQ(hamming_weight(0x00), 0);
  EXPECT_EQ(hamming_weight(0xFF), 8);
  EXPECT_EQ(hamming_weight(0xA5), 4);
  EXPECT_EQ(hamming_weight16(0xFFFF), 16);
  EXPECT_EQ(hamming_distance(0xF0, 0x0F), 8);
  EXPECT_EQ(hamming_distance(0xAA, 0xAA), 0);
}

TEST(Environment, TrainingDeviceIsNominal) {
  const DeviceModel d0 = DeviceModel::make(0);
  EXPECT_DOUBLE_EQ(d0.gain, 1.0);
  EXPECT_DOUBLE_EQ(d0.offset, 0.0);
  EXPECT_DOUBLE_EQ(d0.signature_spread, 0.0);
}

TEST(Environment, TargetDevicesVaryDeterministically) {
  const DeviceModel a = DeviceModel::make(3);
  const DeviceModel b = DeviceModel::make(3);
  const DeviceModel c = DeviceModel::make(4);
  EXPECT_DOUBLE_EQ(a.gain, b.gain);
  EXPECT_NE(a.gain, c.gain);
  EXPECT_GT(a.signature_spread, 0.0);
  EXPECT_NE(a.gain, 1.0);
}

TEST(Environment, SessionsAndProgramsCompose) {
  Environment env{DeviceModel::make(1), SessionContext::make(1), ProgramContext::make(2)};
  EXPECT_NEAR(env.total_gain(),
              env.device.gain * env.session.gain * env.program.gain, 1e-12);
  EXPECT_NEAR(env.total_offset(),
              env.device.offset + env.session.offset + env.program.offset, 1e-12);
}

TEST(PowerModel, DeterministicForSameInputs) {
  avr::Cpu cpu;
  cpu.load_program(avr::assemble("LDI r16, 3\nADD r0, r16\nNOP").program);
  const auto records = cpu.run(8);
  const PowerSynthesizer synth(DeviceModel::make(0));
  const auto w1 = synth.synthesize(records);
  const auto w2 = synth.synthesize(records);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1.size(),
            static_cast<std::size_t>(std::ceil(3 * synth.config().samples_per_cycle)) + 1);
}

TEST(PowerModel, DifferentOpcodesDifferentWaveforms) {
  const PowerSynthesizer synth(DeviceModel::make(0));
  const auto wave_of = [&](const std::string& listing) {
    avr::Cpu cpu;
    cpu.load_program(avr::assemble(listing).program);
    const auto records = cpu.run(4);
    return synth.synthesize(records);
  };
  const auto add = wave_of("ADD r1, r2");
  const auto and_ = wave_of("AND r1, r2");
  ASSERT_EQ(add.size(), and_.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < add.size(); ++i) diff += std::abs(add[i] - and_[i]);
  EXPECT_GT(diff / static_cast<double>(add.size()), 1e-4);
}

TEST(PowerModel, RegisterAddressChangesWaveform) {
  const PowerSynthesizer synth(DeviceModel::make(0));
  const auto wave_of = [&](std::uint8_t rd) {
    avr::Cpu cpu;
    avr::Instruction in;
    in.mnemonic = avr::Mnemonic::kAdd;
    in.rd = rd;
    in.rr = 2;
    cpu.load_program(std::vector<avr::Instruction>{in});
    // Pin data so only the address differs.
    cpu.set_reg(rd, 0);
    cpu.set_reg(2, 0);
    const auto records = cpu.run(1);
    return synth.synthesize(records);
  };
  const auto r16 = wave_of(16);
  const auto r0 = wave_of(0);
  double diff = 0.0;
  for (std::size_t i = 0; i < r16.size(); ++i) diff += std::abs(r16[i] - r0[i]);
  EXPECT_GT(diff, 0.1);
}

TEST(PowerModel, IssueMapPreservesAliases) {
  const avr::Program p = avr::assemble("TST r5\nNOP").program;
  const IssueMap map = make_issue_map(p);
  ASSERT_TRUE(map.count(0));
  EXPECT_EQ(map.at(0).mnemonic, avr::Mnemonic::kTst);
  // Two-word instructions advance the address correctly.
  const avr::Program q = avr::assemble("LDS r0, 0x100\nNOP").program;
  const IssueMap map2 = make_issue_map(q);
  EXPECT_TRUE(map2.count(2));
  EXPECT_EQ(map2.at(2).mnemonic, avr::Mnemonic::kNop);
}

TEST(Oscilloscope, GainAndOffsetApplied) {
  ScopeConfig cfg;
  cfg.enable_noise = false;
  cfg.enable_quantization = false;
  cfg.trigger_jitter = 0;
  cfg.enable_bandwidth = false;
  const Oscilloscope scope(cfg);
  Environment env{DeviceModel::make(0), SessionContext{}, ProgramContext{}};
  env.session.gain = 2.0;
  env.session.offset = 0.5;
  std::mt19937_64 rng(1);
  const auto out = scope.capture(std::vector<double>(100, 1.0), env, rng, false);
  for (double v : out) EXPECT_NEAR(v, 2.5, 1e-12);
}

TEST(Oscilloscope, NoiseRespectsDeviceFactor) {
  ScopeConfig cfg;
  cfg.enable_quantization = false;
  cfg.trigger_jitter = 0;
  const Oscilloscope scope(cfg);
  std::mt19937_64 rng(2);
  Environment quiet{DeviceModel::make(0), SessionContext{}, ProgramContext{}};
  Environment loud = quiet;
  loud.device.noise_factor = 4.0;
  const std::vector<double> flat(4000, 1.0);
  const double s_quiet = dsp::stddev(scope.capture(flat, quiet, rng));
  const double s_loud = dsp::stddev(scope.capture(flat, loud, rng));
  EXPECT_GT(s_loud, 2.5 * s_quiet);
}

TEST(Oscilloscope, QuantizationSnapsToAdcGrid) {
  ScopeConfig cfg;
  cfg.enable_noise = false;
  cfg.trigger_jitter = 0;
  cfg.enable_bandwidth = false;
  cfg.adc_bits = 8;
  const Oscilloscope scope(cfg);
  Environment env{DeviceModel::make(0), SessionContext{}, ProgramContext{}};
  std::mt19937_64 rng(3);
  const auto out = scope.capture({0.1234567}, env, rng, false);
  const double step = (cfg.range_hi - cfg.range_lo) / 255.0;
  const double snapped = std::round((out[0] - cfg.range_lo) / step) * step + cfg.range_lo;
  EXPECT_NEAR(out[0], snapped, 1e-12);
}

class AcquisitionFixture : public ::testing::Test {
 protected:
  AcquisitionCampaign campaign{DeviceModel::make(0), SessionContext::make(0)};
  std::mt19937_64 rng{42};
};

TEST_F(AcquisitionFixture, TraceHasPaperGeometry) {
  const avr::Instruction target = avr::random_instance(
      *avr::class_index(avr::Mnemonic::kAdd), rng);
  const Trace t = campaign.capture_trace(target, ProgramContext::make(0), rng);
  EXPECT_EQ(t.samples.size(), 315u);
  EXPECT_EQ(t.meta.class_idx, *avr::class_index(avr::Mnemonic::kAdd));
  ASSERT_TRUE(t.meta.rd.has_value());
  ASSERT_TRUE(t.meta.rr.has_value());
  EXPECT_EQ(*t.meta.rd, target.rd);
  EXPECT_GT(t.meta.gain_estimate, 0.0);
}

TEST_F(AcquisitionFixture, ReferenceSubtractionRemovesBaseline) {
  // The subtracted window keeps only instruction-specific content, whereas
  // the raw capture sits on the ~0.35 baseline plus ~1.0 clock spikes.
  const avr::Instruction target = avr::random_instance(
      *avr::class_index(avr::Mnemonic::kMov), rng);
  const Trace t = campaign.capture_trace(target, ProgramContext::make(0), rng);
  EXPECT_LT(std::abs(dsp::mean(t.samples)), 0.25);
}

TEST_F(AcquisitionFixture, CaptureClassSpreadsPrograms) {
  const TraceSet set = campaign.capture_class(
      *avr::class_index(avr::Mnemonic::kAnd), 20, 5, rng);
  ASSERT_EQ(set.size(), 20u);
  std::map<int, std::size_t> per_program;
  for (const Trace& t : set) ++per_program[t.meta.program_id];
  EXPECT_EQ(per_program.size(), 5u);
  EXPECT_EQ(per_program[0], 4u);
}

TEST_F(AcquisitionFixture, CaptureRegisterPinsRegister) {
  const TraceSet rd_set = campaign.capture_register(true, 13, 15, 3, rng);
  for (const Trace& t : rd_set) {
    ASSERT_TRUE(t.meta.rd.has_value());
    EXPECT_EQ(*t.meta.rd, 13);
    EXPECT_TRUE(avr::class_allows_rd(t.meta.class_idx, 13));
  }
  const TraceSet rr_set = campaign.capture_register(false, 27, 15, 3, rng);
  for (const Trace& t : rr_set) {
    ASSERT_TRUE(t.meta.rr.has_value());
    EXPECT_EQ(*t.meta.rr, 27);
  }
}

TEST_F(AcquisitionFixture, GainEstimateTracksSessionGain) {
  SessionContext hot = SessionContext::make(0);
  hot.id = 9;
  hot.gain = 1.5;
  const AcquisitionCampaign hot_campaign(DeviceModel::make(0), hot);
  const avr::Instruction target = avr::random_instance(
      *avr::class_index(avr::Mnemonic::kAdd), rng);
  double base = 0.0, scaled = 0.0;
  for (int i = 0; i < 20; ++i) {
    base += campaign.capture_trace(target, ProgramContext::make(0), rng).meta.gain_estimate;
    scaled +=
        hot_campaign.capture_trace(target, ProgramContext::make(0), rng).meta.gain_estimate;
  }
  EXPECT_NEAR(scaled / base, 1.5, 0.05);
}

TEST_F(AcquisitionFixture, ExternalReferenceValidated) {
  AcquisitionCampaign other(DeviceModel::make(0), SessionContext::make(0));
  EXPECT_THROW(other.use_reference(std::vector<double>(10, 0.0)), std::invalid_argument);
  EXPECT_NO_THROW(other.use_reference(campaign.reference_window()));
}

TEST_F(AcquisitionFixture, CaptureProgramLabelsEveryWindow) {
  const avr::Program p = avr::assemble(
      "SBI 5, 5\nNOP\nLDI r16, 1\nADD r0, r16\nST X+, r0\nCBI 5, 5").program;
  const TraceSet windows = campaign.capture_program(p, ProgramContext::make(0), rng);
  // First instruction (SBI) has no preceding fetch cycle -> no window.
  ASSERT_EQ(windows.size(), p.size() - 1);
  EXPECT_EQ(windows[1].meta.instr.mnemonic, avr::Mnemonic::kLdi);
  EXPECT_EQ(windows[2].meta.instr.mnemonic, avr::Mnemonic::kAdd);
  for (const Trace& t : windows) {
    EXPECT_EQ(t.samples.size(), 315u);
    EXPECT_GT(t.meta.gain_estimate, 0.0);
  }
}

TEST_F(AcquisitionFixture, SameSeedSameTraces) {
  std::mt19937_64 a(123), b(123);
  const std::size_t cls = *avr::class_index(avr::Mnemonic::kEor);
  const Trace ta = campaign.capture_trace(avr::random_instance(cls, a),
                                          ProgramContext::make(1), a);
  const Trace tb = campaign.capture_trace(avr::random_instance(cls, b),
                                          ProgramContext::make(1), b);
  EXPECT_EQ(ta.samples, tb.samples);
}

/// Paired power+EM acquisition (AcquisitionOptions::em).
class EmAcquisitionFixture : public ::testing::Test {
 protected:
  static AcquisitionOptions em_options(std::uint64_t probe_seed = 0xE11E57ull) {
    AcquisitionOptions o;
    o.em.enabled = true;
    o.em.probe_seed = probe_seed;
    return o;
  }
  AcquisitionCampaign campaign{DeviceModel::make(0), SessionContext::make(0),
                               LeakageConfig{}, ScopeConfig{}, em_options()};
  std::mt19937_64 rng{42};

  Trace capture(std::mt19937_64& r, double progress = 0.0) {
    const std::size_t cls = *avr::class_index(avr::Mnemonic::kAdd);
    return campaign.capture_trace(avr::random_instance(cls, r),
                                  ProgramContext::make(0), r, progress);
  }
};

TEST_F(EmAcquisitionFixture, EmWindowIsAlignedAndDeterministic) {
  std::mt19937_64 a(5), b(5);
  const Trace ta = capture(a);
  const Trace tb = capture(b);
  ASSERT_TRUE(ta.has_em());
  EXPECT_EQ(ta.em_samples.size(), ta.samples.size());
  EXPECT_GT(ta.meta.em_gain_estimate, 0.0);
  // Probe-seed determinism: the whole paired capture replays bit-exactly.
  EXPECT_EQ(ta.samples, tb.samples);
  EXPECT_EQ(ta.em_samples, tb.em_samples);
}

TEST_F(EmAcquisitionFixture, EmCaptureLeavesPowerChannelBitIdentical) {
  // The EM stage draws from its own RNG sub-stream (exactly one draw from
  // the capture stream), so enabling the probe must not perturb the power
  // samples -- existing power-only corpora stay bit-identical.
  AcquisitionCampaign plain(DeviceModel::make(0), SessionContext::make(0));
  std::mt19937_64 a(9), b(9);
  const std::size_t cls = *avr::class_index(avr::Mnemonic::kCom);
  const Trace with_em = campaign.capture_trace(avr::random_instance(cls, a),
                                               ProgramContext::make(2), a);
  const Trace without = plain.capture_trace(avr::random_instance(cls, b),
                                            ProgramContext::make(2), b);
  EXPECT_EQ(with_em.samples, without.samples);
  EXPECT_FALSE(without.has_em());
}

TEST_F(EmAcquisitionFixture, ProbeSeedReshapesOnlyTheEmChannel) {
  AcquisitionCampaign moved(DeviceModel::make(0), SessionContext::make(0),
                            LeakageConfig{}, ScopeConfig{},
                            em_options(0xBADC0FFEull));
  std::mt19937_64 a(11), b(11);
  const std::size_t cls = *avr::class_index(avr::Mnemonic::kLdi);
  const Trace ta = campaign.capture_trace(avr::random_instance(cls, a),
                                          ProgramContext::make(1), a);
  const Trace tb = moved.capture_trace(avr::random_instance(cls, b),
                                       ProgramContext::make(1), b);
  EXPECT_EQ(ta.samples, tb.samples);       // power blind to the probe position
  EXPECT_NE(ta.em_samples, tb.em_samples); // EM mix is probe-specific
}

TEST_F(EmAcquisitionFixture, MisalignmentDriftAttenuatesTheEmGainMonotonically) {
  AcquisitionOptions opts = em_options();
  opts.em.misalignment_drift = 2.0;
  AcquisitionCampaign drifting(DeviceModel::make(0), SessionContext::make(0),
                               LeakageConfig{}, ScopeConfig{}, opts);
  // Average the stochastic gain estimate over captures at fixed progress.
  const auto mean_gain = [&](double progress) {
    std::mt19937_64 r(31);
    const std::size_t cls = *avr::class_index(avr::Mnemonic::kAnd);
    double acc = 0.0;
    for (int i = 0; i < 12; ++i) {
      acc += drifting
                 .capture_trace(avr::random_instance(cls, r),
                                ProgramContext::make(0), r, progress)
                 .meta.em_gain_estimate;
    }
    return acc / 12.0;
  };
  const double start = mean_gain(0.0);
  const double mid = mean_gain(0.5);
  const double end = mean_gain(1.0);
  EXPECT_GT(start, mid);
  EXPECT_GT(mid, end);
}

TEST_F(EmAcquisitionFixture, ChannelViewsSplitThePair) {
  std::mt19937_64 r(3);
  const Trace t = capture(r);
  const Trace p = channel_view(t, Channel::kPower);
  const Trace e = channel_view(t, Channel::kEm);
  EXPECT_EQ(p.samples, t.samples);
  EXPECT_FALSE(p.has_em());
  EXPECT_EQ(e.samples, t.em_samples);
  EXPECT_EQ(e.meta.gain_estimate, t.meta.em_gain_estimate);
  EXPECT_EQ(p.meta.class_idx, t.meta.class_idx);
  EXPECT_EQ(e.meta.class_idx, t.meta.class_idx);
}

TEST_F(EmAcquisitionFixture, CaptureProgramPairsEveryWindow) {
  const avr::Program p = avr::assemble(
      "SBI 5, 5\nNOP\nLDI r16, 1\nADD r0, r16\nST X+, r0\nCBI 5, 5").program;
  const TraceSet windows = campaign.capture_program(p, ProgramContext::make(0), rng);
  ASSERT_EQ(windows.size(), p.size() - 1);
  for (const Trace& t : windows) {
    EXPECT_TRUE(t.has_em());
    EXPECT_EQ(t.em_samples.size(), t.samples.size());
    EXPECT_GT(t.meta.em_gain_estimate, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Acquisition-configuration sweep (sim/acq_config.hpp): window geometry,
// grid conversions, nominal bit-identity, stamps, trigger skew.
// ---------------------------------------------------------------------------

TEST(AcquisitionConfig, WindowGeometryFollowsTheRate) {
  EXPECT_EQ(AcquisitionConfig::nominal().window_samples(), 315u);  // the paper's window
  EXPECT_EQ(AcquisitionConfig::half_rate().window_samples(), 159u);
  EXPECT_EQ(AcquisitionConfig::quarter_rate().window_samples(), 81u);
  // Exactly integral spans must not round up through the epsilon guard.
  AcquisitionConfig integral;
  integral.samples_per_cycle = 150.0;
  EXPECT_EQ(integral.window_samples(), 302u);
  EXPECT_DOUBLE_EQ(AcquisitionConfig::nominal().cost(), 315.0 * 8.0);
  EXPECT_DOUBLE_EQ(AcquisitionConfig::low_resolution(6).cost(), 315.0 * 6.0);
}

TEST(AcquisitionConfig, ValidationRejectsUnusableKnobs) {
  AcquisitionConfig bad;
  bad.samples_per_cycle = 2.0;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = {};
  bad.adc_bits = 1;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = {};
  bad.bandwidth_scale = 0.0;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = {};
  bad.window_offset = -400;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  EXPECT_NO_THROW(AcquisitionConfig::nominal().validated());
}

TEST(AcquisitionConfig, AppliedIsBitExactIdentityAtNominal) {
  const AcquisitionConfig nominal = AcquisitionConfig::nominal();
  const ScopeConfig scope;
  const ScopeConfig out = nominal.applied(scope);
  EXPECT_EQ(out.bandwidth_fraction, scope.bandwidth_fraction);
  EXPECT_EQ(out.adc_bits, scope.adc_bits);
  const LeakageConfig leak;
  EXPECT_EQ(nominal.applied(leak).samples_per_cycle, leak.samples_per_cycle);
  // The EM probe's scope derivation is an identity too (0.16 base fraction).
  const ScopeConfig em = em_scope_config(EmProbeConfig{});
  EXPECT_EQ(nominal.applied(em).bandwidth_fraction, em.bandwidth_fraction);
}

TEST(AcquisitionConfig, AppliedConvertsAbsoluteBandwidthToTheDecimatedGrid) {
  // The same 250 MHz front-end is a larger fraction of a lower sample rate.
  const ScopeConfig scope;
  EXPECT_NEAR(AcquisitionConfig::half_rate().applied(scope).bandwidth_fraction,
              0.2, 1e-12);
  EXPECT_NEAR(AcquisitionConfig::quarter_rate().applied(scope).bandwidth_fraction,
              0.4, 1e-12);
  EXPECT_NEAR(AcquisitionConfig::narrowband(0.5).applied(scope).bandwidth_fraction,
              0.05, 1e-12);
  // Decimating far enough pushes the pole to Nyquist; the clamp holds it.
  AcquisitionConfig extreme;
  extreme.samples_per_cycle = kNominalSamplesPerCycle / 8.0;
  EXPECT_DOUBLE_EQ(extreme.applied(scope).bandwidth_fraction, 0.49);
}

TEST(AcquisitionConfig, NominalCampaignIsBitIdenticalToPlainCampaign) {
  // The tentpole invariant: threading AcquisitionConfig::nominal() through
  // the campaign reproduces the pre-config pipeline bit for bit, on the
  // power AND EM channels, including the reference windows and meta.
  AcquisitionOptions em_opts;
  em_opts.em.enabled = true;
  const AcquisitionCampaign plain(DeviceModel::make(0), SessionContext::make(0),
                                  LeakageConfig{}, ScopeConfig{}, em_opts);
  const AcquisitionCampaign configured(DeviceModel::make(0), SessionContext::make(0),
                                       AcquisitionConfig::nominal(), LeakageConfig{},
                                       ScopeConfig{}, em_opts);
  EXPECT_EQ(plain.reference_window(), configured.reference_window());
  EXPECT_EQ(plain.em_reference_window(), configured.em_reference_window());
  std::mt19937_64 a(99), b(99);
  const std::size_t cls = *avr::class_index(avr::Mnemonic::kAdd);
  const TraceSet ta = plain.capture_class(cls, 6, 2, a);
  const TraceSet tb = configured.capture_class(cls, 6, 2, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].samples, tb[i].samples);
    EXPECT_EQ(ta[i].em_samples, tb[i].em_samples);
    EXPECT_EQ(ta[i].meta.gain_estimate, tb[i].meta.gain_estimate);
    EXPECT_EQ(tb[i].meta.samples_per_cycle, kNominalSamplesPerCycle);
    EXPECT_EQ(tb[i].meta.adc_bits, kNominalAdcBits);
  }
}

TEST(AcquisitionConfig, CampaignStampsTheLiveChainIntoEveryMeta) {
  AcquisitionConfig half_low = AcquisitionConfig::half_rate();
  half_low.adc_bits = 6;
  const AcquisitionCampaign campaign(DeviceModel::make(0), SessionContext::make(0),
                                     half_low);
  EXPECT_EQ(campaign.acquisition_config().label, "half-rate");
  std::mt19937_64 r(7);
  const std::size_t cls = *avr::class_index(avr::Mnemonic::kEor);
  const Trace t = campaign.capture_trace(avr::random_instance(cls, r),
                                         ProgramContext::make(0), r);
  EXPECT_EQ(t.samples.size(), half_low.window_samples());
  EXPECT_EQ(t.meta.samples_per_cycle, half_low.samples_per_cycle);
  EXPECT_EQ(t.meta.adc_bits, 6);
  const avr::Program p =
      avr::assemble("SBI 5, 5\nNOP\nLDI r16, 1\nADD r0, r16\nCBI 5, 5").program;
  for (const Trace& w : campaign.capture_program(p, ProgramContext::make(0), r)) {
    EXPECT_EQ(w.samples.size(), half_low.window_samples());
    EXPECT_EQ(w.meta.samples_per_cycle, half_low.samples_per_cycle);
    EXPECT_EQ(w.meta.adc_bits, 6);
  }
}

TEST(AcquisitionConfig, DecimatedCaptureIsSeedDeterministic) {
  const AcquisitionCampaign campaign(DeviceModel::make(2), SessionContext::make(0),
                                     AcquisitionConfig::half_rate());
  std::mt19937_64 a(11), b(11);
  const std::size_t cls = *avr::class_index(avr::Mnemonic::kSub);
  const TraceSet ta = campaign.capture_class(cls, 8, 3, a);
  const TraceSet tb = campaign.capture_class(cls, 8, 3, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].samples, tb[i].samples);
    EXPECT_EQ(ta[i].meta.gain_estimate, tb[i].meta.gain_estimate);
  }
}

TEST(AcquisitionConfig, WindowOffsetShiftsTheCutExactly) {
  // Only the cut position depends on the offset: all RNG draws happen before
  // cutting, so the offset window is the unshifted capture slid by the skew.
  AcquisitionOptions raw;
  raw.subtract_reference = false;
  AcquisitionConfig skewed;
  skewed.window_offset = 3;
  const AcquisitionCampaign base(DeviceModel::make(0), SessionContext::make(0),
                                 AcquisitionConfig::nominal(), LeakageConfig{},
                                 ScopeConfig{}, raw);
  const AcquisitionCampaign shifted(DeviceModel::make(0), SessionContext::make(0),
                                    skewed, LeakageConfig{}, ScopeConfig{}, raw);
  std::mt19937_64 a(21), b(21);
  const std::size_t cls = *avr::class_index(avr::Mnemonic::kAdd);
  const Trace t0 = base.capture_trace(avr::random_instance(cls, a),
                                      ProgramContext::make(0), a);
  const Trace t3 = shifted.capture_trace(avr::random_instance(cls, b),
                                         ProgramContext::make(0), b);
  ASSERT_EQ(t0.samples.size(), t3.samples.size());
  for (std::size_t i = 0; i + 3 < t0.samples.size(); ++i) {
    ASSERT_EQ(t3.samples[i], t0.samples[i + 3]) << "at sample " << i;
  }
}

TEST(PowerModel, WindowMathHoldsAcrossFractionalRates) {
  // The satellite property test for the guarded floor/ceil pair: on any
  // fractional grid, per-cycle window starts advance by floor(spc) or
  // ceil(spc), never drift more than a sample off the exact position, and
  // every cut the campaign can request stays inside the synthesized
  // waveform -- across cycle counts long enough to accumulate rounding.
  for (const double spc : {156.25, 78.125, 52.6, 39.0625, 31.1, 150.0, 17.3, 11.75}) {
    LeakageConfig leak;
    leak.samples_per_cycle = spc;
    const PowerSynthesizer synth(DeviceModel::make(0), leak);
    std::size_t prev = 0;
    for (unsigned c = 1; c <= 96; ++c) {
      const std::size_t s = synth.sample_of_cycle(static_cast<double>(c));
      const std::size_t step = s - prev;
      EXPECT_GE(step, static_cast<std::size_t>(std::floor(spc))) << spc << " @ " << c;
      EXPECT_LE(step, static_cast<std::size_t>(std::ceil(spc))) << spc << " @ " << c;
      EXPECT_LT(std::abs(static_cast<double>(s) - c * spc), 1.0 + 1e-6)
          << spc << " @ " << c;
      prev = s;
    }
    // Waveform sizing matches the same guarded arithmetic end to end.
    std::string sled;
    for (int i = 0; i < 37; ++i) sled += "NOP\n";
    avr::Cpu cpu;
    cpu.load_program(avr::assemble(sled).program);
    const auto records = cpu.run(37);
    unsigned total_cycles = 0;
    for (const auto& rec : records) total_cycles += rec.cycles;
    const auto wave = synth.synthesize(records);
    EXPECT_GE(wave.size(), synth.sample_of_cycle(static_cast<double>(total_cycles)) + 1)
        << spc;
  }
}

TEST(Environment, CornerDeviceSitsOnTheRails) {
  const DeviceModel corner = DeviceModel::make_corner(7);
  const DeviceModel again = DeviceModel::make_corner(7);
  EXPECT_EQ(corner.gain, again.gain);
  EXPECT_EQ(corner.corner_seed, again.corner_seed);
  // Rails, not interior: the magnitudes sit at or beyond make()'s band.
  EXPECT_DOUBLE_EQ(std::abs(corner.gain - 1.0), 0.28);
  EXPECT_DOUBLE_EQ(std::abs(corner.thermal_drift), 0.05);
  EXPECT_GE(corner.opcode_gain_spread, 0.09);
  EXPECT_GE(corner.opcode_offset_spread, 0.012);
  // Heavier decoupling pole than any make() device.
  EXPECT_LT(corner.decoupling_cutoff, 0.09);
  EXPECT_GT(corner.decoupling_cutoff, 0.0);
  // Disjoint seed-space: the corner device is not make(7) in disguise.
  EXPECT_NE(corner.signature_seed, DeviceModel::make(7).signature_seed);
}

}  // namespace
}  // namespace sidis::sim
