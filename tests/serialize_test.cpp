// Round-trip tests for template persistence (core/serialize.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/csa.hpp"
#include "core/serialize.hpp"
#include "sim/acquisition.hpp"

namespace sidis::core {
namespace {

TEST(Serialize, MatrixAndVectorRoundTripExactly) {
  std::mt19937_64 rng(1);
  std::normal_distribution<double> d(0, 1);
  linalg::Matrix m(3, 4);
  for (double& v : m.data()) v = d(rng);
  std::stringstream ss;
  write_matrix(ss, m);
  EXPECT_EQ(read_matrix(ss), m);  // bit-exact via hex floats

  linalg::Vector v{1.0 / 3.0, -2.718281828459045, 0.0, 1e-300};
  std::stringstream sv;
  write_vector(sv, v);
  EXPECT_EQ(read_vector(sv), v);
}

TEST(Serialize, CorruptArchivesThrow) {
  std::stringstream ss("vec 3 0x1p+0 0x1p+1");  // one value short
  EXPECT_THROW(read_vector(ss), std::runtime_error);
  std::stringstream tag("nope 1 2");
  EXPECT_THROW(read_matrix(tag), std::runtime_error);
  std::stringstream neg("mat -1 2");
  EXPECT_THROW(read_matrix(neg), std::runtime_error);
  std::stringstream junk("vec 3 0x1p+0 zz 0x1p+1");  // a field that is no number
  EXPECT_THROW(read_vector(junk), std::runtime_error);
  std::stringstream overflow("mat 4294967296 4294967296");  // rows * cols wraps to 0
  EXPECT_THROW(read_matrix(overflow), std::runtime_error);
  // Declared counts far beyond what the archive holds fail as truncated,
  // without allocating the count first.
  std::stringstream huge_vec("vec 1000000000000 0x1p+0");
  EXPECT_THROW(read_vector(huge_vec), std::runtime_error);
  std::stringstream huge_mat("mat 1000000 1000000 0x1p+0");
  EXPECT_THROW(read_matrix(huge_mat), std::runtime_error);
  std::stringstream huge_qda("qda 1000000000000 class 0 0x1p+0");
  EXPECT_THROW(load_qda(huge_qda), std::runtime_error);
  std::stringstream huge_points(
      "pipeline pipeline_config 0 50 0x1p+1 0x1p+6 1 0x1p+2 0x1p-8 5 1 1 1 64 1 "
      "grid 15750 points 1000000000000 1 2 0x1p+0");
  EXPECT_THROW(load_pipeline(huge_points), std::runtime_error);
  // Whole saved pipelines edited field by field: each parses, but the
  // rebuilt pipeline refuses it, and the loader reports that as a corrupt
  // archive like every other fault.
  const features::FeaturePipeline pipeline = features::FeaturePipeline::from_parts(
      {}, {{1, 2, 1.0}}, {},
      stats::Pca::from_parts({0.0}, {1.0}, linalg::Matrix(1, 1, 1.0), 1.0), 15750);
  std::stringstream saved;
  save_pipeline(saved, pipeline);
  std::vector<std::string> fields;
  for (std::string f; saved >> f;) fields.push_back(f);
  const auto edited = [&fields](const std::string& field, std::size_t from,
                                std::size_t erase, std::vector<std::string> insert) {
    std::vector<std::string> out = fields;
    const auto at = std::find(out.begin(), out.end(), field);
    EXPECT_NE(at, out.end()) << field;
    const auto pos = out.erase(at + static_cast<std::ptrdiff_t>(from),
                               at + static_cast<std::ptrdiff_t>(from + erase));
    out.insert(pos, insert.begin(), insert.end());
    std::string archive;
    for (const std::string& f : out) archive += f + ' ';
    return archive;
  };
  // pipeline_config family num_scales min_scale max_scale log_spacing
  // kernel_radius: a nan radius sizes no CWT bank.
  std::stringstream nan_radius(edited("pipeline_config", 6, 1, {"nan"}));
  EXPECT_THROW(load_pipeline(nan_radius), std::runtime_error);
  // pca vec 1 <mean>: a two-entry mean beside a one-column basis.
  std::stringstream pca_shape(edited("pca", 2, 1, {"2", "0x0p+0"}));
  EXPECT_THROW(load_pipeline(pca_shape), std::runtime_error);
  // points 1 <j k value>: a pipeline without feature points.
  std::stringstream no_points(edited("points", 1, 4, {"0"}));
  EXPECT_THROW(load_pipeline(no_points), std::runtime_error);
}

TEST(Serialize, QdaRoundTripPredictsIdentically) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> noise(0, 0.4);
  std::vector<linalg::Vector> rows;
  std::vector<int> y;
  for (int i = 0; i < 120; ++i) {
    rows.push_back({noise(rng) - 1.5, noise(rng)});
    y.push_back(-3);
    rows.push_back({noise(rng) + 1.5, noise(rng)});
    y.push_back(9);
  }
  ml::Dataset train;
  train.x = linalg::Matrix::from_rows(rows);
  train.y = y;
  ml::Qda original;
  original.fit(train);

  std::stringstream ss;
  save_qda(ss, original);
  const ml::Qda restored = load_qda(ss);
  EXPECT_EQ(restored.labels(), original.labels());
  for (int i = 0; i < 50; ++i) {
    const linalg::Vector x{noise(rng) * 4, noise(rng) * 4};
    EXPECT_EQ(restored.predict(x), original.predict(x));
    const linalg::Vector sa = original.scores(x);
    const linalg::Vector sb = restored.scores(x);
    for (std::size_t c = 0; c < sa.size(); ++c) EXPECT_NEAR(sb[c], sa[c], 1e-9);
  }
}

/// A current-version archive relabelled as format `version`.
std::string with_version(std::string archive, int version) {
  const std::string current = "sidis-template 5\n";
  EXPECT_EQ(archive.rfind(current, 0), 0u);
  std::string header = "sidis-template ";
  header += std::to_string(version);
  header += '\n';
  return archive.replace(0, current.size(), header);
}

class SerializeFixture : public ::testing::Test {
 protected:
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng{3};
};

TEST_F(SerializeFixture, PipelineRoundTripTransformsIdentically) {
  const sim::TraceSet a =
      campaign.capture_class(*avr::class_index(avr::Mnemonic::kAdd), 60, 5, rng);
  const sim::TraceSet b =
      campaign.capture_class(*avr::class_index(avr::Mnemonic::kAnd), 60, 5, rng);
  features::PipelineConfig cfg = csa_config();
  cfg.pca_components = 8;
  const auto original = features::FeaturePipeline::fit({{0, 1}, {&a, &b}}, cfg);

  std::stringstream ss;
  save_pipeline(ss, original);
  const auto restored = load_pipeline(ss);
  EXPECT_EQ(restored.unified_points().size(), original.unified_points().size());
  EXPECT_EQ(restored.grid_size(), original.grid_size());
  for (const sim::Trace& t : a) {
    const linalg::Vector za = original.transform(t);
    const linalg::Vector zb = restored.transform(t);
    ASSERT_EQ(za.size(), zb.size());
    for (std::size_t i = 0; i < za.size(); ++i) EXPECT_NEAR(zb[i], za[i], 1e-9);
  }
}

TEST_F(SerializeFixture, DisassemblerRoundTripClassifiesIdentically) {
  ProfilingData data;
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kCom}) {
    data.classes[*avr::class_index(m)] =
        campaign.capture_class(*avr::class_index(m), 60, 5, rng);
  }
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  auto original = HierarchicalDisassembler::train(data, cfg);
  // Archives carry the reject-gate thresholds; calibrate so the gates are
  // armed with non-trivial floors before the round trip.
  original.calibrate_reject(data);
  ASSERT_TRUE(original.reject_calibrated());

  std::stringstream ss;
  save_disassembler(ss, original);
  const auto restored = load_disassembler(ss);
  EXPECT_TRUE(restored.reject_calibrated());

  for (int i = 0; i < 25; ++i) {
    const sim::Trace t = campaign.capture_trace(
        avr::random_instance(*avr::class_index(avr::Mnemonic::kAdd), rng),
        sim::ProgramContext::make(i % 5), rng);
    const Disassembly da = original.classify(t);
    const Disassembly db = restored.classify(t);
    EXPECT_EQ(da.group, db.group);
    EXPECT_EQ(da.class_idx, db.class_idx);
    EXPECT_EQ(da.verdict, db.verdict);
    // Hex-float persistence makes the gate floors, and therefore the
    // headroom arithmetic, bit-exact across the round trip.
    EXPECT_EQ(da.margin_headroom, db.margin_headroom);
    EXPECT_EQ(da.score_headroom, db.score_headroom);
  }
}

TEST_F(SerializeFixture, RejectOperatingPointRoundTripsAndDowngradesToCustom) {
  ProfilingData data;
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kCom}) {
    data.classes[*avr::class_index(m)] =
        campaign.capture_class(*avr::class_index(m), 60, 5, rng);
  }
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  auto original = HierarchicalDisassembler::train(data, cfg);
  original.calibrate_reject(data, RejectOperatingPoint::kBalanced);
  ASSERT_TRUE(original.reject_calibrated());
  ASSERT_EQ(original.reject_operating_point(), RejectOperatingPoint::kBalanced);

  std::stringstream ss;
  save_disassembler(ss, original);
  const auto restored = load_disassembler(ss);
  EXPECT_EQ(restored.reject_operating_point(), RejectOperatingPoint::kBalanced);

  // An explicit RejectConfig is a custom point, and stays one across the trip.
  auto custom = HierarchicalDisassembler::train(data, cfg);
  custom.calibrate_reject(data, RejectConfig{});
  EXPECT_EQ(custom.reject_operating_point(), RejectOperatingPoint::kCustom);
  std::stringstream cs;
  save_disassembler(cs, custom);
  EXPECT_EQ(load_disassembler(cs).reject_operating_point(),
            RejectOperatingPoint::kCustom);

  // Archives from before the operating point was recorded are refused, not
  // downgraded to kCustom.
  for (const int version : {2, 3}) {
    std::stringstream old(with_version(ss.str(), version));
    EXPECT_THROW(load_disassembler(old), std::runtime_error) << "version " << version;
  }
}

TEST_F(SerializeFixture, NonQdaModelRefusesToPersist) {
  ProfilingData data;
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi}) {
    data.classes[*avr::class_index(m)] =
        campaign.capture_class(*avr::class_index(m), 40, 4, rng);
  }
  HierarchicalConfig cfg;
  cfg.pipeline = csa_config();
  cfg.pipeline.pca_components = 6;
  cfg.classifier = ml::ClassifierKind::kKnn;
  const auto model = HierarchicalDisassembler::train(data, cfg);
  std::stringstream ss;
  EXPECT_THROW(save_disassembler(ss, model), std::invalid_argument);
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream ss("not-a-template 1");
  EXPECT_THROW(load_disassembler(ss), std::runtime_error);
}

/// Paired power+EM corpus and per-channel models for the fused archives.
class FusedSerializeFixture : public ::testing::Test {
 protected:
  FusedSerializeFixture() {
    HierarchicalConfig cfg;
    cfg.pipeline = csa_config();
    cfg.pipeline.pca_components = 10;
    cfg.group_components = 8;
    cfg.instruction_components = 8;
    ProfilingData power_data, em_data;
    for (avr::Mnemonic m :
         {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kCom}) {
      const std::size_t c = *avr::class_index(m);
      paired_[c] = campaign_.capture_class(c, 60, 5, rng_);
      power_data.classes[c] = sim::channel_views(paired_[c], sim::Channel::kPower);
      em_data.classes[c] = sim::channel_views(paired_[c], sim::Channel::kEm);
    }
    power_ = std::make_shared<const HierarchicalDisassembler>(
        HierarchicalDisassembler::train(power_data, cfg));
    em_ = std::make_shared<const HierarchicalDisassembler>(
        HierarchicalDisassembler::train(em_data, cfg));
  }

  sim::Trace probe(int i) {
    return campaign_.capture_trace(
        avr::random_instance(*avr::class_index(avr::Mnemonic::kAdd), rng_),
        sim::ProgramContext::make(i % 5), rng_);
  }

  sim::AcquisitionCampaign campaign_{
      sim::DeviceModel::make(0), sim::SessionContext::make(0),
      sim::LeakageConfig{}, sim::ScopeConfig{}, [] {
        sim::AcquisitionOptions o;
        o.em.enabled = true;
        return o;
      }()};
  std::mt19937_64 rng_{7};
  std::map<std::size_t, sim::TraceSet> paired_;
  std::shared_ptr<const HierarchicalDisassembler> power_, em_;
};

TEST_F(FusedSerializeFixture, FusedRoundTripClassifiesIdentically) {
  FusedDisassembler original(power_, em_,
                             LevelFusion{FusionMode::kScore, 0.5, 0.5},
                             LevelFusion{FusionMode::kScore, 0.75, 0.25});
  original.train_feature_heads(paired_);
  original.set_group_fusion(LevelFusion{FusionMode::kFeature, 0.5, 0.5});
  ASSERT_TRUE(original.has_feature_heads());

  std::stringstream ss;
  save_fused_disassembler(ss, original);
  const FusedDisassembler restored = load_fused_disassembler(ss);
  ASSERT_NE(restored.em_model(), nullptr);
  EXPECT_TRUE(restored.has_feature_heads());
  EXPECT_EQ(restored.group_fusion().mode, FusionMode::kFeature);
  EXPECT_EQ(restored.instruction_fusion().mode, FusionMode::kScore);
  EXPECT_EQ(restored.instruction_fusion().power_weight, 0.75);
  EXPECT_EQ(restored.instruction_fusion().em_weight, 0.25);
  EXPECT_EQ(restored.posterior_classes(), original.posterior_classes());

  for (int i = 0; i < 25; ++i) {
    const sim::Trace t = probe(i);
    const Disassembly da = original.classify_scored(t);
    const Disassembly db = restored.classify_scored(t);
    EXPECT_EQ(da.group, db.group);
    EXPECT_EQ(da.class_idx, db.class_idx);
    EXPECT_EQ(da.verdict, db.verdict);
    // Hex-float persistence keeps the fused posterior bit-exact too.
    ASSERT_EQ(da.log_posterior.size(), db.log_posterior.size());
    for (std::size_t c = 0; c < da.log_posterior.size(); ++c) {
      EXPECT_EQ(da.log_posterior[c], db.log_posterior[c]);
    }
  }
}

TEST_F(FusedSerializeFixture, PlainArchiveLoadsAsPowerOnlyFusion) {
  std::stringstream ss;
  save_disassembler(ss, *power_);
  std::string archive = ss.str();

  // Plain archive -> power-only fusion, bit-identical to the plain model.
  std::stringstream v5(archive);
  const FusedDisassembler fused = load_fused_disassembler(v5);
  EXPECT_EQ(fused.em_model(), nullptr);
  EXPECT_TRUE(fused.degenerate_to(sim::Channel::kPower));
  for (int i = 0; i < 10; ++i) {
    const sim::Trace t = probe(i);
    const Disassembly a = power_->classify(sim::channel_view(t, sim::Channel::kPower));
    const Disassembly b = fused.classify(t);
    EXPECT_EQ(a.class_idx, b.class_idx);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.margin_headroom, b.margin_headroom);
  }

  // The previous version and a future one are refused.
  for (const int version : {4, 6}) {
    std::stringstream other(with_version(archive, version));
    EXPECT_THROW(load_fused_disassembler(other), std::runtime_error)
        << "version " << version;
  }
}

TEST_F(FusedSerializeFixture, PlainLoaderRejectsFusedArchive) {
  FusedDisassembler fused(power_, em_, LevelFusion{FusionMode::kScore, 0.5, 0.5},
                          LevelFusion{FusionMode::kScore, 0.5, 0.5});
  std::stringstream ss;
  save_fused_disassembler(ss, fused);
  EXPECT_THROW(load_disassembler(ss), std::runtime_error);
}

}  // namespace
}  // namespace sidis::core
