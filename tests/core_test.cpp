// Integration-level tests for the hierarchical disassembler, majority
// voting, malware detection and the baselines, on small simulated corpora.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <sstream>

#include <stdexcept>

#include "avr/assembler.hpp"
#include "baseline/baselines.hpp"
#include "core/csa.hpp"
#include "core/disassembler.hpp"
#include "core/hierarchical.hpp"
#include "core/majority_vote.hpp"
#include "core/transfer.hpp"
#include "sim/acquisition.hpp"

namespace sidis::core {
namespace {

class CoreFixture : public ::testing::Test {
 protected:
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng{2024};

  sim::TraceSet capture(avr::Mnemonic m, std::size_t n,
                        avr::AddrMode mode = avr::AddrMode::kNone) {
    return campaign.capture_class(*avr::class_index(m, mode), n, 5, rng);
  }
};

TEST_F(CoreFixture, HierarchicalClassifiesAcrossGroups) {
  ProfilingData data;
  data.classes[*avr::class_index(avr::Mnemonic::kAdd)] = capture(avr::Mnemonic::kAdd, 80);
  data.classes[*avr::class_index(avr::Mnemonic::kEor)] = capture(avr::Mnemonic::kEor, 80);
  data.classes[*avr::class_index(avr::Mnemonic::kLdi)] = capture(avr::Mnemonic::kLdi, 80);
  data.classes[*avr::class_index(avr::Mnemonic::kRjmp)] = capture(avr::Mnemonic::kRjmp, 80);

  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 20;
  cfg.group_components = 15;
  cfg.instruction_components = 15;
  cfg.factory.discriminant.shrinkage = 0.15;
  const auto model = HierarchicalDisassembler::train(data, cfg);

  // Fresh traces, unseen programs.
  std::size_t group_hits = 0, class_hits = 0, total = 0;
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kEor, avr::Mnemonic::kLdi,
                          avr::Mnemonic::kRjmp}) {
    const std::size_t cls = *avr::class_index(m);
    for (int i = 0; i < 15; ++i) {
      const sim::Trace t = campaign.capture_trace(
          avr::random_instance(cls, rng), sim::ProgramContext::make(60 + i % 3), rng);
      const Disassembly d = model.classify(t);
      group_hits += d.group == avr::group_of_class(cls) ? 1 : 0;
      class_hits += d.class_idx == cls ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GE(static_cast<double>(group_hits) / static_cast<double>(total), 0.95);
  EXPECT_GE(static_cast<double>(class_hits) / static_cast<double>(total), 0.85);
}

TEST_F(CoreFixture, SingleClassGroupIsTrivialLevel) {
  ProfilingData data;
  data.classes[*avr::class_index(avr::Mnemonic::kAdd)] = capture(avr::Mnemonic::kAdd, 60);
  data.classes[*avr::class_index(avr::Mnemonic::kLds, avr::AddrMode::kAbs)] =
      capture(avr::Mnemonic::kLds, 60, avr::AddrMode::kAbs);
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  const auto model = HierarchicalDisassembler::train(data, cfg);
  // Group 5 holds a single profiled class: level 2 must be trivial.
  const sim::Trace t = campaign.capture_trace(
      avr::random_instance(*avr::class_index(avr::Mnemonic::kLds, avr::AddrMode::kAbs), rng),
      sim::ProgramContext::make(0), rng);
  EXPECT_EQ(model.classify_within_group(5, t),
            *avr::class_index(avr::Mnemonic::kLds, avr::AddrMode::kAbs));
}

TEST_F(CoreFixture, RegisterLevelRecoversOperands) {
  ProfilingData data;
  data.classes[*avr::class_index(avr::Mnemonic::kEor)] = capture(avr::Mnemonic::kEor, 60);
  data.classes[*avr::class_index(avr::Mnemonic::kLdi)] = capture(avr::Mnemonic::kLdi, 60);
  for (std::uint8_t r : {4, 20}) {
    data.rd_classes[r] = campaign.capture_register(true, r, 220, 5, rng);
    data.rr_classes[r] = campaign.capture_register(false, r, 220, 5, rng);
  }
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 20;
  cfg.factory.discriminant.shrinkage = 0.15;
  const auto model = HierarchicalDisassembler::train(data, cfg);
  ASSERT_TRUE(model.has_register_level());

  avr::SampleOptions opts;
  opts.fix_rd = 20;
  opts.fix_rr = 4;
  std::size_t rd_hits = 0, rr_hits = 0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    const avr::Instruction target =
        avr::random_instance(*avr::class_index(avr::Mnemonic::kEor), rng, opts);
    const sim::Trace t =
        campaign.capture_trace(target, sim::ProgramContext::make(70), rng);
    const Disassembly d = model.classify(t);
    if (d.rd && *d.rd == 20) ++rd_hits;
    if (d.rr && *d.rr == 4) ++rr_hits;
  }
  EXPECT_GE(rd_hits, n * 7 / 10);
  EXPECT_GE(rr_hits, n * 7 / 10);
}

TEST_F(CoreFixture, BatchClassifyIsBitIdenticalToPerWindowClassify) {
  ProfilingData data;
  for (avr::Mnemonic m :
       {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kCom}) {
    data.classes[*avr::class_index(m)] = capture(m, 60);
  }
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  auto model = HierarchicalDisassembler::train(data, cfg);
  model.calibrate_reject(data, RejectOperatingPoint::kBalanced);

  sim::TraceSet eval;
  for (int i = 0; i < 30; ++i) {
    const std::size_t cls =
        *avr::class_index(i % 2 == 0 ? avr::Mnemonic::kAdd : avr::Mnemonic::kLdi);
    eval.push_back(campaign.capture_trace(avr::random_instance(cls, rng),
                                          sim::ProgramContext::make(i % 4), rng));
  }
  // The batched entry point shares one workspace and one normalization pass
  // per window across levels -- but runs the identical arithmetic, so every
  // field down to the gate headrooms must be bit-equal to the per-window
  // path.  This is what makes batch *grouping* (a scheduling accident in the
  // fleet runtime) invisible in the results.
  const std::vector<Disassembly> batched = model.classify_batch(eval);
  ASSERT_EQ(batched.size(), eval.size());
  for (std::size_t i = 0; i < eval.size(); ++i) {
    const Disassembly single = model.classify(eval[i]);
    EXPECT_EQ(batched[i].group, single.group) << "window " << i;
    EXPECT_EQ(batched[i].class_idx, single.class_idx) << "window " << i;
    EXPECT_EQ(batched[i].rd, single.rd) << "window " << i;
    EXPECT_EQ(batched[i].rr, single.rr) << "window " << i;
    EXPECT_EQ(batched[i].verdict, single.verdict) << "window " << i;
    EXPECT_EQ(batched[i].margin_headroom, single.margin_headroom) << "window " << i;
    EXPECT_EQ(batched[i].score_headroom, single.score_headroom) << "window " << i;
  }
  EXPECT_TRUE(model.classify_batch({}).empty());
}

TEST_F(CoreFixture, NamedRejectOperatingPointsNestMonotonically) {
  ProfilingData data;
  for (avr::Mnemonic m :
       {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kCom}) {
    data.classes[*avr::class_index(m)] = capture(m, 60);
  }
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  auto model = HierarchicalDisassembler::train(data, cfg);

  // Eval mixes clean windows with off-distribution ones (a different process
  // corner and session) so the gates have something to trip on.
  sim::AcquisitionCampaign corner{sim::DeviceModel::make(7),
                                  sim::SessionContext::make(3)};
  sim::TraceSet eval;
  for (int i = 0; i < 30; ++i) {
    const std::size_t cls =
        *avr::class_index(i % 2 == 0 ? avr::Mnemonic::kAdd : avr::Mnemonic::kCom);
    eval.push_back(campaign.capture_trace(avr::random_instance(cls, rng),
                                          sim::ProgramContext::make(i % 4), rng));
    eval.push_back(corner.capture_trace(avr::random_instance(cls, rng),
                                        sim::ProgramContext::make(i % 4), rng));
  }

  // A stricter point places every gate floor at a higher clean quantile with
  // less slack, so its rejection set must CONTAIN every looser point's --
  // rejecting a window at "monitoring" but accepting it at "strict" would
  // make the presets incoherent as an escalation ladder.
  const RejectOperatingPoint ladder[] = {RejectOperatingPoint::kMonitoring,
                                         RejectOperatingPoint::kBalanced,
                                         RejectOperatingPoint::kStrict};
  std::vector<std::vector<bool>> flagged;
  for (const RejectOperatingPoint point : ladder) {
    model.calibrate_reject(data, point);
    EXPECT_EQ(model.reject_operating_point(), point);
    std::vector<bool> f;
    f.reserve(eval.size());
    for (const sim::Trace& t : eval) {
      f.push_back(model.classify(t).verdict != Verdict::kOk);
    }
    flagged.push_back(std::move(f));
  }
  for (std::size_t p = 1; p < flagged.size(); ++p) {
    for (std::size_t i = 0; i < eval.size(); ++i) {
      if (flagged[p - 1][i]) {
        EXPECT_TRUE(flagged[p][i])
            << "window " << i << " flagged at ladder step " << p - 1
            << " but clean at stricter step " << p;
      }
    }
  }
  // kCustom names the absence of a preset -- it has no quantiles to hand out.
  EXPECT_THROW(reject_config_for(RejectOperatingPoint::kCustom),
               std::invalid_argument);
}

TEST_F(CoreFixture, CalibrationScoresCleanWindowsOfEveryLength) {
  // Classes of one instruction group: the group level is trivial and the
  // one level-2 model scores every window, so a window's headrooms are that
  // level's margin and score minus its floors.
  const avr::Mnemonic classes[] = {avr::Mnemonic::kAdd, avr::Mnemonic::kAnd,
                                   avr::Mnemonic::kEor};
  ProfilingData data;
  ProfilingData clean;
  for (const avr::Mnemonic m : classes) {
    ASSERT_EQ(avr::group_of_class(*avr::class_index(m)),
              avr::group_of_class(*avr::class_index(classes[0])));
    data.classes[*avr::class_index(m)] = capture(m, 60);
    // A calibration corpus of two window lengths: every third window cut.
    sim::TraceSet held = capture(m, 30);
    for (std::size_t i = 0; i < held.size(); i += 3) held[i].samples.resize(250);
    clean.classes[*avr::class_index(m)] = std::move(held);
  }
  // Calibration fans the corpus out over the pipeline's workers; the gates,
  // and so the archives, must not depend on how many.
  std::vector<std::string> archives;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    HierarchicalConfig cfg;
    cfg.pipeline = csa_config();
    cfg.pipeline.pca_components = 10;
    cfg.pipeline.workers = workers;
    cfg.instruction_components = 8;
    auto model = HierarchicalDisassembler::train(data, cfg);
    // Quantile 0 and no slack put each floor on the corpus minimum.
    model.calibrate_reject(clean, RejectConfig{0.0, 0.0, 0.0});
    std::ostringstream os;
    model.save(os);
    archives.push_back(os.str());

    // Calibration scores each window as the walk does, bit for bit, so
    // every calibration window clears both floors and some window sits on
    // each exactly.  A length bucket left out, or scored any other way,
    // shows as negative headroom or as a floor no window attains.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double margin = kInf, score = kInf, cut_margin = kInf, cut_score = kInf;
    for (const auto& [cls, traces] : clean.classes) {
      for (const sim::Trace& t : traces) {
        const Disassembly d = model.classify(t);
        EXPECT_GE(d.margin_headroom, 0.0) << "class " << cls;
        EXPECT_GE(d.score_headroom, 0.0) << "class " << cls;
        margin = std::min(margin, d.margin_headroom);
        score = std::min(score, d.score_headroom);
        if (t.samples.size() == 250) {
          cut_margin = std::min(cut_margin, d.margin_headroom);
          cut_score = std::min(cut_score, d.score_headroom);
        }
      }
    }
    EXPECT_EQ(margin, 0.0);
    EXPECT_EQ(score, 0.0);
    // The cut windows fall off the training distribution, so they set a
    // floor.
    EXPECT_TRUE(cut_margin == 0.0 || cut_score == 0.0)
        << "cut windows' headrooms " << cut_margin << " / " << cut_score;
  }
  EXPECT_TRUE(archives[0] == archives[1]) << "archives differ across worker counts";
}

TEST_F(CoreFixture, RecalibratedCopyRunsOneArmOnAClone) {
  const avr::Mnemonic classes[] = {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi,
                                   avr::Mnemonic::kRjmp};
  ProfilingData data;
  sim::TraceSet fresh;
  for (const avr::Mnemonic m : classes) {
    data.classes[*avr::class_index(m)] = capture(m, 40);
    for (sim::Trace& t : capture(m, 4)) fresh.push_back(std::move(t));
  }
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  const auto model = HierarchicalDisassembler::train(data, cfg);
  const auto bytes = [](const HierarchicalDisassembler& m) {
    std::stringstream ss;
    m.save(ss);
    return ss.str();
  };
  const std::string before = bytes(model);
  const auto by_hand = [&](RecalMode mode) {
    std::stringstream ss(before);
    HierarchicalDisassembler m = HierarchicalDisassembler::load(ss);
    m.recalibrate(fresh);
    if (mode == RecalMode::kRefit) {
      ProfilingData aug = data;
      for (const sim::Trace& t : fresh) aug.classes[t.meta.class_idx].push_back(t);
      m.refit_classifiers(aug);
    }
    return bytes(m);
  };

  // Each arm equals its steps run by hand on a loaded copy, and the source
  // model is never touched; an empty corpus returns the plain clone.
  const std::string renorm = bytes(recalibrated_copy(model, fresh, RecalMode::kRenorm,
                                                     false, nullptr));
  EXPECT_NE(renorm, before);
  EXPECT_TRUE(renorm == by_hand(RecalMode::kRenorm));
  const std::string refit = bytes(recalibrated_copy(model, fresh, RecalMode::kRefit,
                                                    false, &data));
  EXPECT_NE(refit, renorm);
  EXPECT_TRUE(refit == by_hand(RecalMode::kRefit));
  EXPECT_TRUE(bytes(recalibrated_copy(model, {}, RecalMode::kRefit, false, &data)) == before);
  EXPECT_TRUE(bytes(model) == before);
  EXPECT_THROW(recalibrated_copy(model, fresh, RecalMode::kRefit, false, nullptr),
               std::invalid_argument);
}

TEST_F(CoreFixture, TrainRejectsEmptyCorpus) {
  ProfilingData data;
  EXPECT_THROW(HierarchicalDisassembler::train(data), std::invalid_argument);
  data.classes[0] = {};
  EXPECT_THROW(HierarchicalDisassembler::train(data), std::invalid_argument);
}

TEST(Disassembly, TextAndInstructionReconstruction) {
  Disassembly d;
  d.class_idx = *avr::class_index(avr::Mnemonic::kEor);
  d.group = 1;
  d.rd = 16;
  d.rr = 17;
  EXPECT_EQ(d.text(), "EOR r16, r17");
  const avr::Instruction in = d.to_instruction();
  EXPECT_EQ(in.mnemonic, avr::Mnemonic::kEor);
  EXPECT_EQ(in.rd, 16);
}

Disassembly observation(avr::Mnemonic m, Verdict v, double margin, double score) {
  Disassembly d;
  d.class_idx = *avr::class_index(m);
  d.verdict = v;
  d.margin_headroom = margin;
  d.score_headroom = score;
  return d;
}

TEST(VoteWeight, RejectedWindowsCarryNoWeight) {
  EXPECT_EQ(vote_weight(observation(avr::Mnemonic::kAdd, Verdict::kRejected, 5.0, 5.0)), 0.0);
  // A rejected window's headroom is irrelevant: the recovery is a guess.
  EXPECT_EQ(vote_weight(observation(avr::Mnemonic::kAdd, Verdict::kRejected, -0.3, 1.0)), 0.0);
}

TEST(VoteWeight, UnarmedGatesReproducePlainMajorityVoting) {
  // Before calibrate_reject() every window carries +inf headroom; the weight
  // must collapse to the pre-reject-option behaviour of one vote per window.
  Disassembly d;  // default: kOk, +inf headrooms
  EXPECT_EQ(vote_weight(d), 1.0);
}

TEST(VoteWeight, AcceptedWeightIsWorstHeadroomClampedToTheBand) {
  using M = avr::Mnemonic;
  // Worst of the two signed headrooms drives the vote.
  EXPECT_DOUBLE_EQ(vote_weight(observation(M::kAdd, Verdict::kOk, 0.3, 0.6)), 0.3);
  EXPECT_DOUBLE_EQ(vote_weight(observation(M::kAdd, Verdict::kOk, 0.9, 0.2)), 0.2);
  // Barely-accepted windows floor at kMinAcceptedWeight, never at zero...
  EXPECT_DOUBLE_EQ(vote_weight(observation(M::kAdd, Verdict::kDegraded, 1e-9, 4.0)),
                   kMinAcceptedWeight);
  // ...and confidently-clean windows cap at one full vote.
  EXPECT_DOUBLE_EQ(vote_weight(observation(M::kAdd, Verdict::kOk, 7.0, 3.0)), 1.0);
}

TEST(SlotVote, RejectedBurstCanNoLongerFlipASlotDecision) {
  // The ROADMAP bug: three rejected windows all guessing SUB used to outvote
  // two cleanly accepted ADD windows (3 > 5/2 under the old unweighted count
  // rule).  With signed-headroom weights the rejected burst casts nothing.
  SlotVote slot;
  int rejected_votes = 0, accepted_votes = 0, repeats = 0;
  const auto add = [&](const Disassembly& d) {
    slot.add(d);
    ++repeats;
    (d.accepted() ? accepted_votes : rejected_votes) += 1;
  };
  add(observation(avr::Mnemonic::kAdd, Verdict::kOk, 0.8, 0.9));
  add(observation(avr::Mnemonic::kSub, Verdict::kRejected, 2.0, 2.0));
  add(observation(avr::Mnemonic::kSub, Verdict::kRejected, 2.0, 2.0));
  add(observation(avr::Mnemonic::kAdd, Verdict::kOk, 0.7, 0.6));
  add(observation(avr::Mnemonic::kSub, Verdict::kRejected, 2.0, 2.0));

  // Document the pre-fix failure mode: the count rule picks the reject burst.
  ASSERT_GT(rejected_votes, repeats / 2);
  ASSERT_LT(accepted_votes, repeats / 2 + 1);

  EXPECT_EQ(slot.winner().class_idx, *avr::class_index(avr::Mnemonic::kAdd));
  EXPECT_DOUBLE_EQ(slot.winner_weight(), 0.8 + 0.6);
  EXPECT_DOUBLE_EQ(slot.total_weight(), 0.8 + 0.6);
}

TEST(SlotVote, AllRejectedYieldsAnEmptyWinnerWithZeroWeight) {
  SlotVote slot;
  slot.add(observation(avr::Mnemonic::kSub, Verdict::kRejected, 1.0, 1.0));
  slot.add(observation(avr::Mnemonic::kSub, Verdict::kRejected, 1.0, 1.0));
  EXPECT_EQ(slot.total_weight(), 0.0);
  EXPECT_EQ(slot.winner_weight(), 0.0);
  EXPECT_EQ(slot.winner().text(), Disassembly{}.text());
}

TEST(SlotVote, TiesResolveToTheEarliestSeenCandidate) {
  SlotVote slot;
  slot.add(observation(avr::Mnemonic::kCom, Verdict::kOk, 0.4, 0.9));
  slot.add(observation(avr::Mnemonic::kAdd, Verdict::kOk, 0.4, 0.9));
  EXPECT_EQ(slot.winner().class_idx, *avr::class_index(avr::Mnemonic::kCom));
  slot.add(observation(avr::Mnemonic::kAdd, Verdict::kOk, 0.1, 0.9));
  EXPECT_EQ(slot.winner().class_idx, *avr::class_index(avr::Mnemonic::kAdd));
  EXPECT_DOUBLE_EQ(slot.winner_weight(), 0.5);
}

TEST_F(CoreFixture, MajorityVoteBeatsGeneralAtLowDims) {
  features::LabeledTraces train, test;
  std::vector<sim::TraceSet> train_sets, test_sets;
  const std::vector<avr::Mnemonic> ms = {avr::Mnemonic::kAdd, avr::Mnemonic::kSub,
                                         avr::Mnemonic::kAnd, avr::Mnemonic::kOr};
  for (avr::Mnemonic m : ms) {
    train_sets.push_back(capture(m, 80));
    test_sets.push_back(capture(m, 25));
  }
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const int label = static_cast<int>(*avr::class_index(ms[i]));
    train.labels.push_back(label);
    train.sets.push_back(&train_sets[i]);
    test.labels.push_back(label);
    test.sets.push_back(&test_sets[i]);
  }

  MajorityVoteConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 2;
  cfg.factory.discriminant.shrinkage = 0.15;
  const auto voter = MajorityVoteClassifier::train(train, cfg);
  EXPECT_EQ(voter.num_pairs(), 6u);

  std::size_t mv_hits = 0, total = 0;
  for (std::size_t i = 0; i < test.sets.size(); ++i) {
    for (const sim::Trace& t : *test.sets[i]) {
      mv_hits += voter.predict(t) == test.labels[i] ? 1 : 0;
      ++total;
    }
  }
  features::PipelineConfig gcfg = csa_config();
  gcfg.pca_components = 2;
  const auto pipe = features::FeaturePipeline::fit(train, gcfg);
  ml::Qda qda;
  qda.fit(pipe.transform(train));
  const double general = qda.accuracy(pipe.transform(test));
  const double mv = static_cast<double>(mv_hits) / static_cast<double>(total);
  EXPECT_GT(mv, general);
}

TEST_F(CoreFixture, MalwareDetectorFlagsRegisterSubstitution) {
  const avr::Program golden =
      avr::assemble("LDI r16, 1\nEOR r16, r17\nMOV r2, r16").program;
  const MalwareDetector detector(golden);

  // Perfect recovery: no findings.
  std::vector<Disassembly> ok(golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ok[i].class_idx = *avr::class_of(golden[i]);
    ok[i].rd = golden[i].rd;
    ok[i].rr = golden[i].rr;
  }
  EXPECT_TRUE(detector.check(ok).empty());

  // Rr substitution on the EOR.
  std::vector<Disassembly> bad = ok;
  bad[1].rr = 0;
  const auto findings = detector.check(bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].rr_mismatch);
  EXPECT_FALSE(findings[0].class_mismatch);
  EXPECT_EQ(findings[0].index, 1u);
  EXPECT_NE(findings[0].describe().find("Rr tampered"), std::string::npos);

  // Opcode substitution.
  std::vector<Disassembly> swapped = ok;
  swapped[1].class_idx = *avr::class_index(avr::Mnemonic::kAnd);
  const auto findings2 = detector.check(swapped);
  ASSERT_EQ(findings2.size(), 1u);
  EXPECT_TRUE(findings2[0].class_mismatch);

  // Truncated stream: missing instructions are reported.
  std::vector<Disassembly> shorter(ok.begin(), ok.end() - 1);
  EXPECT_EQ(detector.check(shorter).size(), 1u);
}

TEST_F(CoreFixture, MalwareDetectorSkipsUnprofiledGolden) {
  const avr::Program golden = avr::assemble("NOP\nEOR r16, r17").program;
  const MalwareDetector detector(golden);
  std::vector<Disassembly> recovered(2);
  recovered[0].class_idx = *avr::class_index(avr::Mnemonic::kAdd);  // garbage for NOP
  recovered[1].class_idx = *avr::class_of(golden[1]);
  recovered[1].rd = 16;
  recovered[1].rr = 17;
  EXPECT_TRUE(detector.check(recovered).empty());
}

TEST_F(CoreFixture, ListingRendersRecoveredStream) {
  std::vector<Disassembly> ds(2);
  ds[0].class_idx = *avr::class_index(avr::Mnemonic::kAdd);
  ds[0].rd = 1;
  ds[0].rr = 2;
  ds[1].class_idx = *avr::class_index(avr::Mnemonic::kRjmp);
  EXPECT_EQ(listing(ds), "ADD r1, r2\nRJMP .0\n");
}

TEST_F(CoreFixture, BaselinesTrainAndClassify) {
  features::LabeledTraces train, test;
  std::vector<sim::TraceSet> train_sets, test_sets;
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi}) {
    train_sets.push_back(capture(m, 60));
    test_sets.push_back(capture(m, 20));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    train.labels.push_back(static_cast<int>(i));
    train.sets.push_back(&train_sets[i]);
    test.labels.push_back(static_cast<int>(i));
    test.sets.push_back(&test_sets[i]);
  }
  baseline::BaselineConfig cfg;
  cfg.pca_components = 10;
  const auto msgna = baseline::train_msgna(train, cfg);
  const auto eisenbarth = baseline::train_eisenbarth(train, cfg);
  // ADD vs LDI cross 2 groups: easy for everyone under matched conditions.
  EXPECT_GE(msgna.accuracy(test), 0.9);
  EXPECT_GE(eisenbarth.accuracy(test), 0.9);
}

// -- multi-device zero-shot protocol ----------------------------------------

TransferConfig small_transfer_base() {
  TransferConfig base;
  base.classes = {*avr::class_index(avr::Mnemonic::kAdd),
                  *avr::class_index(avr::Mnemonic::kAdc),
                  *avr::class_index(avr::Mnemonic::kSub)};
  base.num_programs = 3;
  base.model.pipeline = csa_config();
  base.model.pipeline.pca_components = 18;
  base.model.group_components = 15;
  base.model.instruction_components = 15;
  base.model.factory.discriminant.shrinkage = 0.15;
  base.eval_workers = 2;
  return base;
}

TEST(MultiDevice, PooledZeroShotProtocolIsAccountedAndGated) {
  MultiDeviceConfig md;
  md.train_devices = {0, 1};
  md.holdout_device = 7;
  md.holdout_corner = true;
  md.configs = {sim::AcquisitionConfig::nominal(),
                sim::AcquisitionConfig::low_resolution(6)};
  md.traces_per_class = 18;
  md.test_traces_per_class = 15;

  const MultiDeviceResult result =
      evaluate_multi_device(md, small_transfer_base());

  EXPECT_EQ(result.holdout_device, 7);
  // Pooled corpus accounting: classes x fleet x configs x budget.
  EXPECT_EQ(result.pooled_train_traces, 3u * 2u * 2u * 18u);
  ASSERT_EQ(result.singles.size(), 2u);
  double best = 0.0;
  for (const SingleDeviceBaseline& s : result.singles) {
    EXPECT_GE(s.accuracy, 0.0);
    EXPECT_LE(s.accuracy, 1.0);
    best = std::max(best, s.accuracy);
  }
  EXPECT_EQ(result.best_single_accuracy, best);
  EXPECT_EQ(result.pooled_lift,
            result.pooled_accuracy - result.best_single_accuracy);
  // The zero-shot claim on the corner device: pooling devices and configs
  // never loses to the best budget-matched single profile (the *strict* lift
  // is gated on the full 112-class bench; the smoke corpus pins no-regress).
  EXPECT_GE(result.pooled_lift, 0.0)
      << "pooled " << result.pooled_accuracy << " vs best single "
      << result.best_single_accuracy;
  // Reject gates were calibrated on the pooled profiling corpus only, yet on
  // the unseen corner device they must stay useful: some windows accepted,
  // and at least half of the misclassified windows flagged (!kOk).
  EXPECT_GT(result.pooled_accepted_fraction, 0.0);
  EXPECT_LE(result.pooled_accepted_fraction, 1.0);
  EXPECT_GE(result.pooled_flagged_miss_fraction, 0.5)
      << "gates calibrated on pooled data lost track of holdout misses";
}

TEST(MultiDevice, ValidationRejectsDegenerateProtocols) {
  const TransferConfig base = small_transfer_base();
  {
    MultiDeviceConfig md;
    md.train_devices = {};
    EXPECT_THROW((void)evaluate_multi_device(md, base), std::invalid_argument);
  }
  {
    MultiDeviceConfig md;
    md.train_devices = {0, 1, 7};  // holdout profiled: nothing is zero-shot
    md.holdout_device = 7;
    EXPECT_THROW((void)evaluate_multi_device(md, base), std::invalid_argument);
  }
  {
    MultiDeviceConfig md;
    md.configs = {sim::AcquisitionConfig::nominal(),
                  sim::AcquisitionConfig::half_rate()};  // mixed sample grids
    EXPECT_THROW((void)evaluate_multi_device(md, base), std::invalid_argument);
  }
  {
    TransferConfig degenerate = base;
    degenerate.classes.resize(1);
    EXPECT_THROW((void)evaluate_multi_device(MultiDeviceConfig{}, degenerate),
                 std::invalid_argument);
  }
  {
    TransferConfig non_qda = base;
    non_qda.model.classifier = ml::ClassifierKind::kKnn;
    EXPECT_THROW((void)evaluate_multi_device(MultiDeviceConfig{}, non_qda),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace sidis::core
