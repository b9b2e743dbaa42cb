// Bit-identity battery for the lane-vectorized (struct-of-arrays) batch hot
// path.  Every batch primitive vectorizes ONLY across the window/lane
// dimension and keeps the scalar per-window accumulation order, so its
// output must equal the scalar path's to the last bit -- at every layer:
// CWT sparse extraction, fused feature transform,
// blocked Mahalanobis/QDA scoring (each kernel at every lane count 1..33),
// and the full hierarchical classify_batch across batch sizes, mixed
// content, mixed trace lengths, and streaming worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/csa.hpp"
#include "core/hierarchical.hpp"
#include "core/serialize.hpp"
#include "dsp/wavelet.hpp"
#include "features/gather_plan.hpp"
#include "features/pipeline.hpp"
#include "linalg/lanes.hpp"
#include "ml/discriminant.hpp"
#include "runtime/fleet.hpp"
#include "scalar_reference.hpp"
#include "sim/acquisition.hpp"
#include "stats/gaussian.hpp"

namespace sidis {
namespace {

/// The lane kernels cover a lane count with 16-lane register tiles, then one
/// 8-, 4-, 2- and 1-lane tile each as the remainder needs
/// (linalg::for_each_tile).  Widths 1..kMaxSweepWidth run every remainder
/// split behind zero, one and two full tiles.
constexpr std::size_t kMaxSweepWidth = 33;

/// The kernel sweeps' lane counts: 1..kMaxSweepWidth, and a serving chunk.
/// Lane count 1 is the scalar anchor: classify() is classify_batch on one
/// window and runs these same kernels, so every sweep's one-lane case is
/// what a single window computes, held against the scalar reference
/// (Cwt::coefficient, scalar_reference.hpp's feature map,
/// Qda::predict_scored).
std::vector<std::size_t> sweep_lanes() {
  std::vector<std::size_t> out(kMaxSweepWidth);
  std::iota(out.begin(), out.end(), std::size_t{1});
  out.push_back(64);
  return out;
}

/// Every vector width (bytes) the lane kernels run at on this CPU: the
/// build's own, and 32 when the CPU has AVX2 and the build's are narrower.
std::vector<std::size_t> lane_widths() {
  std::vector<std::size_t> out{linalg::lane_detail::kBuildBytes};
  if (linalg::lane_detail::widest_bytes() != out.front()) {
    out.push_back(linalg::lane_detail::widest_bytes());
  }
  return out;
}

/// Holds linalg::dispatch_lanes to `bytes` for one scope.
class LaneWidth {
 public:
  explicit LaneWidth(std::size_t bytes) { linalg::lane_detail::width_cap.store(bytes); }
  ~LaneWidth() { linalg::lane_detail::width_cap.store(SIZE_MAX); }
  LaneWidth(const LaneWidth&) = delete;
  LaneWidth& operator=(const LaneWidth&) = delete;
};

std::vector<double> random_signal(std::size_t n, std::mt19937_64& rng) {
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) v = dist(rng);
  return out;
}

// -- CWT ---------------------------------------------------------------------

class CwtBatchTest : public ::testing::TestWithParam<dsp::CwtBackend> {};

TEST_P(CwtBatchTest, CoefficientsBatchMatchesScalarColumns) {
  std::mt19937_64 rng(13);
  dsp::CwtConfig cfg;
  cfg.num_scales = 12;
  cfg.backend = GetParam();
  const dsp::Cwt cwt(cfg);
  dsp::CwtBatchWorkspace bws;
  const std::size_t n = 315;

  // Point pattern mixing a dense scale, sparse scales, duplicates, and
  // out-of-order indices.
  std::vector<std::size_t> js, ks;
  for (std::size_t k = 0; k < 40; ++k) {
    js.push_back(3);
    ks.push_back((k * 7) % n);
  }
  for (std::size_t j = 0; j < cfg.num_scales; ++j) {
    js.push_back(j);
    ks.push_back((j * 31) % n);
  }
  js.push_back(3);  // duplicate of a dense-scale point
  ks.push_back(7);

  for (std::size_t lanes = 1; lanes <= kMaxSweepWidth; ++lanes) {
    std::vector<std::vector<double>> traces;
    for (std::size_t l = 0; l < lanes; ++l) traces.push_back(random_signal(n, rng));
    std::vector<const std::vector<double>*> ptrs;
    for (const auto& t : traces) ptrs.push_back(&t);
    std::vector<double> soa;
    ASSERT_EQ(dsp::Cwt::marshal({ptrs.data(), ptrs.size()}, soa), n);

    const linalg::Matrix batch = cwt.coefficients_soa(soa, n, lanes, js, ks, bws);
    ASSERT_EQ(batch.rows(), js.size());
    ASSERT_EQ(batch.cols(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < js.size(); ++i) {
        ASSERT_EQ(batch(i, l), cwt.coefficient(traces[l], js[i], ks[i]))
            << "lane " << l << " point " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CwtBatchTest,
                         ::testing::Values(dsp::CwtBackend::kAuto,
                                           dsp::CwtBackend::kDirect,
                                           dsp::CwtBackend::kSpectral));

TEST(CwtBatch, RejectsEmptyAndMixedLengthBatches) {
  std::vector<double> soa;
  EXPECT_THROW(dsp::Cwt::marshal({}, soa), std::invalid_argument);
  const std::vector<double> a(100, 0.0), b(101, 0.0);
  const std::vector<const std::vector<double>*> mixed{&a, &b};
  EXPECT_THROW(dsp::Cwt::marshal({mixed.data(), mixed.size()}, soa),
               std::invalid_argument);
  // A null lane anywhere, the first (which sets the batch length) included.
  for (const std::vector<const std::vector<double>*>& null :
       {std::vector<const std::vector<double>*>{&a, nullptr},
        std::vector<const std::vector<double>*>{nullptr, &a},
        std::vector<const std::vector<double>*>{nullptr}}) {
    EXPECT_THROW(dsp::Cwt::marshal({null.data(), null.size()}, soa), std::invalid_argument);
  }
}

TEST(CwtBatch, GatherSoaMatchesCoefficientAtEveryLaneWidth) {
  std::mt19937_64 rng(71);
  dsp::CwtConfig cfg;
  cfg.num_scales = 12;
  const dsp::Cwt cwt(cfg);
  const std::size_t n = 120;

  // 135 points: more than one 64-point block and a count no interleave
  // divides.  Neighbours alternate a fine and a coarse scale (different tap
  // counts), some sit on the window edges (cut taps), and the late ones lie
  // past the widest kernel's reach (radius 4 * 64 samples), so they miss the
  // window altogether (no taps, read 0).
  std::vector<dsp::CwtPoint> points;
  for (std::size_t i = 0; i < 133; ++i) {
    const std::size_t j = i % 2 == 0 ? 1 + i % 5 : cfg.num_scales - 1 - i % 4;
    const std::size_t k = i < 120 ? (i * 37) % n : n + 300 + 7 * (i - 120);
    points.push_back({j, k});
  }
  points.push_back({cfg.num_scales - 1, 0});
  points.push_back({cfg.num_scales - 1, n - 1});

  for (const std::size_t bytes : lane_widths()) {
    const LaneWidth width(bytes);
    for (const std::size_t lanes : sweep_lanes()) {
      std::vector<std::vector<double>> traces;
      for (std::size_t l = 0; l < lanes; ++l) traces.push_back(random_signal(n, rng));
      std::vector<const std::vector<double>*> ptrs;
      for (const auto& t : traces) ptrs.push_back(&t);
      std::vector<double> soa;
      ASSERT_EQ(dsp::Cwt::marshal({ptrs.data(), ptrs.size()}, soa), n);
      std::vector<double> out(points.size() * lanes);
      cwt.gather_soa(soa, n, lanes, points, out);
      std::size_t missed = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t l = 0; l < lanes; ++l) {
          const double ref = cwt.coefficient(traces[l], points[i].j, points[i].k);
          missed += l == 0 && points[i].k >= n + 300 ? 1 : 0;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i * lanes + l]),
                    std::bit_cast<std::uint64_t>(ref))
              << "width " << bytes << " lanes " << lanes << " point " << i << " lane " << l;
        }
      }
      ASSERT_GT(missed, 0u);
    }
  }
}

// -- linalg / stats / ml ------------------------------------------------------

TEST(LinalgBatch, MahalanobisBatchMatchesScalar) {
  std::mt19937_64 rng(17);
  const std::size_t dim = 12;
  // SPD matrix: A^T A + I.
  linalg::Matrix a(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) a(r, c) = random_signal(1, rng)[0];
  }
  linalg::Matrix spd(dim, dim, 0.0);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      for (std::size_t k = 0; k < dim; ++k) spd(r, c) += a(k, r) * a(k, c);
    }
    spd(r, r) += 1.0;
  }
  const linalg::Cholesky chol = linalg::Cholesky::compute(spd);
  ASSERT_TRUE(chol.valid);

  linalg::Matrix scratch;
  for (const std::size_t bytes : lane_widths()) {
    const LaneWidth width(bytes);
    for (const std::size_t lanes : sweep_lanes()) {
      linalg::Matrix x_cols(dim, lanes);
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t l = 0; l < lanes; ++l) x_cols(r, l) = random_signal(1, rng)[0];
      }
      std::vector<double> out(lanes);
      chol.mahalanobis_squared_batch(x_cols, out, scratch);
      for (std::size_t l = 0; l < lanes; ++l) {
        linalg::Vector x(dim);
        for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[l]),
                  std::bit_cast<std::uint64_t>(chol.mahalanobis_squared(x)))
            << "width " << bytes << " lanes " << lanes << " lane " << l;
      }
    }
  }
}

TEST(StatsBatch, GaussianLogPdfBatchMatchesScalar) {
  std::mt19937_64 rng(19);
  const std::size_t dim = 8, samples = 40;
  linalg::Matrix data(samples, dim);
  for (std::size_t r = 0; r < samples; ++r) {
    for (std::size_t c = 0; c < dim; ++c) data(r, c) = random_signal(1, rng)[0];
  }
  const auto g = stats::MultivariateGaussian::fit(data);

  const std::size_t lanes = 6;
  linalg::Matrix x_cols(dim, lanes);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t l = 0; l < lanes; ++l) x_cols(r, l) = random_signal(1, rng)[0];
  }
  std::vector<double> out(lanes);
  linalg::Matrix centered, solve;
  g.log_pdf_batch(x_cols, out, centered, solve);
  for (std::size_t l = 0; l < lanes; ++l) {
    linalg::Vector x(dim);
    for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
    EXPECT_EQ(out[l], g.log_pdf(x)) << "lane " << l;
  }
}

TEST(MlBatch, QdaPredictScoredBatchMatchesScalar) {
  std::mt19937_64 rng(23);
  const std::size_t dim = 6, per_class = 30;
  ml::Dataset train;
  train.x = linalg::Matrix(3 * per_class, dim);
  for (int cls = 0; cls < 3; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t r = static_cast<std::size_t>(cls) * per_class + i;
      for (std::size_t c = 0; c < dim; ++c) {
        train.x(r, c) = random_signal(1, rng)[0] + 2.0 * cls;
      }
      train.y.push_back(cls);
    }
  }
  ml::Qda qda;
  qda.fit(train);

  linalg::Matrix x_cols;
  for (const std::size_t bytes : lane_widths()) {
    const LaneWidth width(bytes);
    for (const std::size_t lanes : sweep_lanes()) {
      x_cols = linalg::Matrix(dim, lanes);
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t l = 0; l < lanes; ++l) {
          x_cols(r, l) = random_signal(1, rng)[0] + 2.0 * (l % 3);
        }
      }
      const std::vector<ml::ScoredPrediction> batch = qda.predict_scored_batch(x_cols);
      const linalg::Matrix scores = qda.scores_batch(x_cols);
      ASSERT_EQ(batch.size(), lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        SCOPED_TRACE("width " + std::to_string(bytes) + " lanes " + std::to_string(lanes) +
                     " lane " + std::to_string(l));
        linalg::Vector x(dim);
        for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
        const ml::ScoredPrediction ref = qda.predict_scored(x);
        ASSERT_EQ(batch[l].label, ref.label);
        ASSERT_EQ(batch[l].top_score, ref.top_score);
        ASSERT_EQ(batch[l].margin, ref.margin);
        const linalg::Vector sref = qda.scores(x);
        for (std::size_t c = 0; c < sref.size(); ++c) {
          ASSERT_EQ(scores(c, l), sref[c]) << "class " << c;
        }
      }
    }
  }

  // The base-class fallback (classifiers without a vectorized override) must
  // satisfy the same contract.
  ml::Lda lda;
  lda.fit(train);
  const ml::Classifier& base = lda;
  const std::vector<ml::ScoredPrediction> fallback = base.predict_scored_batch(x_cols);
  for (std::size_t l = 0; l < x_cols.cols(); ++l) {
    linalg::Vector x(dim);
    for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
    const ml::ScoredPrediction ref = lda.predict_scored(x);
    EXPECT_EQ(fallback[l].label, ref.label);
    EXPECT_EQ(fallback[l].top_score, ref.top_score);
    EXPECT_EQ(fallback[l].margin, ref.margin);
  }
}

// -- feature pipeline ---------------------------------------------------------

TEST(FeaturesBatch, TransformPreparedBatchMatchesScalarColumns) {
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng(29);
  features::LabeledTraces input;
  std::vector<sim::TraceSet> sets;
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi}) {
    sets.push_back(campaign.capture_class(*avr::class_index(m), 40, 5, rng));
  }
  input.labels = {0, 1};
  for (const auto& s : sets) input.sets.push_back(&s);
  features::PipelineConfig cfg = core::csa_config();
  cfg.pca_components = 12;
  const auto pipeline = features::FeaturePipeline::fit(input, cfg);

  std::vector<std::vector<double>> prepared;
  for (std::size_t i = 0; i < kMaxSweepWidth; ++i) {
    const sim::Trace t = campaign.capture_trace(
        avr::random_instance(*avr::class_index(avr::Mnemonic::kAdd), rng),
        sim::ProgramContext::make(static_cast<int>(i % 3)), rng);
    prepared.push_back(features::FeaturePipeline::preprocess_window(
        t, cfg.per_trace_normalization));
  }

  dsp::CwtBatchWorkspace bws;
  const std::size_t fitted = pipeline.max_components();
  ASSERT_GE(fitted, 2u);
  for (const std::size_t components : {fitted, fitted - 1}) {
    std::vector<linalg::Vector> refs;
    for (const std::vector<double>& w : prepared) {
      refs.push_back(reference::features_of_prepared(pipeline, w, components));
      ASSERT_EQ(refs.back().size(), components);
    }
    // Every prefix width of the windows.
    std::vector<const std::vector<double>*> ptrs;
    std::vector<double> soa;
    for (const std::vector<double>& p : prepared) {
      ptrs.push_back(&p);
      const std::size_t n = dsp::Cwt::marshal({ptrs.data(), ptrs.size()}, soa);
      const linalg::Matrix batch =
          pipeline.transform_soa_batch(soa, n, ptrs.size(), components, bws);
      ASSERT_EQ(batch.rows(), components);
      ASSERT_EQ(batch.cols(), ptrs.size());
      for (std::size_t w = 0; w < ptrs.size(); ++w) {
        for (std::size_t c = 0; c < components; ++c) {
          ASSERT_EQ(reference::bits(batch(c, w)), reference::bits(refs[w][c]))
              << "width " << ptrs.size() << " window " << w << " component " << c;
        }
      }
    }
  }
}

// -- shared gather -------------------------------------------------------------

/// A pipeline with hand-placed feature points, so a test can make levels
/// share chosen points.  The scaler and PCA are fitted on random rows
/// of the right width, so the projection is a real one.
features::FeaturePipeline placed_pipeline(const features::PipelineConfig& cfg,
                                          std::vector<stats::GridPoint> points,
                                          std::mt19937_64& rng) {
  linalg::Matrix x(3 * points.size() + 8, points.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = random_signal(1, rng)[0];
  }
  stats::ColumnScaler scaler = stats::ColumnScaler::fit(x);
  stats::Pca pca = stats::Pca::fit(scaler.transform(x), 6);
  return features::FeaturePipeline::from_parts(cfg, std::move(points), std::move(scaler),
                                               std::move(pca), 50 * 315);
}

/// `count` points on scale j, at k = first, first + step, ...
void place(std::vector<stats::GridPoint>& out, std::size_t j, std::size_t count,
           std::size_t first, std::size_t step) {
  for (std::size_t i = 0; i < count; ++i) out.push_back({j, first + i * step, 0.0});
}

/// The levels of a small model (fitted group, instruction and register
/// pipelines) plus hand-placed ones: `wide` holds 70 points on scale 49,
/// `dual` five of the same points, and `operand` points of `wide` plus two
/// points of `dual` that `wide` lacks.
class GatherPlanTest : public ::testing::TestWithParam<dsp::CwtBackend> {
 protected:
  static const std::vector<features::FeaturePipeline>& base() {
    static const std::vector<features::FeaturePipeline> levels = [] {
      sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
      std::mt19937_64 rng(41);
      std::vector<sim::TraceSet> sets;
      for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi,
                              avr::Mnemonic::kCom, avr::Mnemonic::kRjmp}) {
        sets.push_back(campaign.capture_class(*avr::class_index(m), 30, 5, rng));
      }
      sets.push_back(campaign.capture_register(true, 4, 60, 5, rng));
      sets.push_back(campaign.capture_register(true, 20, 60, 5, rng));
      features::PipelineConfig cfg = core::csa_config();
      cfg.pca_components = 10;
      const auto fit = [&](std::vector<std::size_t> which) {
        features::LabeledTraces input;
        for (const std::size_t w : which) {
          input.labels.push_back(static_cast<int>(w));
          input.sets.push_back(&sets[w]);
        }
        return features::FeaturePipeline::fit(input, cfg);
      };
      std::vector<features::FeaturePipeline> out;
      out.push_back(fit({0, 1, 2, 3}));
      out.push_back(fit({0, 2}));
      out.push_back(fit({1, 3}));
      out.push_back(fit({4, 5}));
      std::vector<stats::GridPoint> wide, dual, operand;
      place(wide, 49, 70, 0, 4);
      place(wide, 10, 6, 100, 9);
      place(dual, 49, 5, 0, 8);
      place(dual, 10, 3, 100, 9);
      place(dual, 48, 4, 7, 30);
      place(operand, 49, 40, 2, 4);
      place(operand, 49, 30, 0, 4);
      place(operand, 12, 5, 50, 3);
      place(operand, 48, 2, 7, 30);
      out.push_back(placed_pipeline(cfg, wide, rng));
      out.push_back(placed_pipeline(cfg, dual, rng));
      out.push_back(placed_pipeline(cfg, operand, rng));
      return out;
    }();
    return levels;
  }

  /// The windows: clean captures of every class, preprocessed.
  static std::vector<std::vector<double>> windows(std::size_t count) {
    sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                      sim::SessionContext::make(0)};
    std::mt19937_64 rng(43);
    const std::size_t classes[] = {*avr::class_index(avr::Mnemonic::kAdd),
                                   *avr::class_index(avr::Mnemonic::kLdi),
                                   *avr::class_index(avr::Mnemonic::kCom),
                                   *avr::class_index(avr::Mnemonic::kRjmp)};
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i < count; ++i) {
      const sim::Trace t = campaign.capture_trace(
          avr::random_instance(classes[i % 4], rng),
          sim::ProgramContext::make(static_cast<int>(i % 5)), rng);
      out.push_back(features::FeaturePipeline::preprocess_window(t, true));
    }
    return out;
  }
};

TEST_P(GatherPlanTest, EveryLevelReadsItsOwnFeaturesFromTheUnion) {
  std::vector<features::FeaturePipeline> levels;
  for (const features::FeaturePipeline& p : base()) {
    features::PipelineConfig cfg = p.config();
    cfg.cwt.backend = GetParam();
    levels.push_back(features::FeaturePipeline::from_parts(
        cfg, p.unified_points(), p.scaler(), p.pca(), p.grid_size()));
  }
  const std::vector<std::vector<double>> pool = windows(64);
  // Slots in model order after the shared slot: instruction levels (one
  // trivial), register levels, with the placed levels riding among them.
  // The shared slot is the placed `wide` level, then a trivial group level
  // (nothing shared: every slot gathers all of its points itself).
  const features::FeaturePipeline* const shared_slots[] = {&levels[4], nullptr};
  for (const features::FeaturePipeline* shared : shared_slots) {
    const std::vector<const features::FeaturePipeline*> slots{
        shared,     &levels[0], &levels[1], &levels[5], nullptr,
        &levels[2], &levels[3], &levels[6]};
    const features::GatherPlan plan(slots);
    const features::GatherPlan::Layout& layout = plan.layout();

    // Each union point appears once; the shared prefix is the shared slot's
    // points, and the other slots' own lists hold exactly their rows past it.
    const std::vector<dsp::CwtPoint>& e = layout.entries;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const dsp::CwtPoint& p : e) {
      EXPECT_TRUE(seen.emplace(p.j, p.k).second) << "(" << p.j << ", " << p.k << ") twice";
    }
    EXPECT_EQ(layout.shared, shared == nullptr ? 0 : shared->unified_points().size());
    // Both kinds of sharing occur: rows of other slots inside the shared
    // prefix, and rows past it that two other slots read.
    std::vector<std::size_t> readers(e.size(), 0);
    std::size_t in_prefix = 0;
    for (std::size_t s = 1; s < slots.size(); ++s) {
      std::vector<std::size_t> past;
      for (const std::size_t r : layout.rows[s]) {
        if (r < layout.shared) {
          ++in_prefix;
        } else {
          past.push_back(r);
        }
      }
      std::sort(past.begin(), past.end());
      past.erase(std::unique(past.begin(), past.end()), past.end());
      EXPECT_EQ(layout.own[s], past) << "slot " << s;
      for (const std::size_t r : past) ++readers[r];
    }
    EXPECT_TRUE(layout.own[0].empty());
    if (shared != nullptr) {
      EXPECT_GT(in_prefix, 0u) << "no point shared with slot 0";
    }
    EXPECT_GT(*std::max_element(readers.begin(), readers.end()), 1u)
        << "no point shared by two other slots";

    features::GatherBatch batch;
    for (const std::size_t n : {std::size_t{315}, std::size_t{250}, std::size_t{40},
                                std::size_t{0}}) {
      std::vector<std::vector<double>> cut = pool;
      for (std::vector<double>& w : cut) w.resize(n);
      // The reference: each level alone.
      std::vector<std::vector<linalg::Vector>> alone(slots.size());
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (slots[s] == nullptr) continue;
        for (const std::vector<double>& w : cut) {
          alone[s].push_back(reference::features_of_prepared(*slots[s], w));
        }
      }
      for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                      std::size_t{16}, std::size_t{64}}) {
        std::vector<const std::vector<double>*> ptrs;
        for (std::size_t i = 0; i < width; ++i) ptrs.push_back(&cut[i]);
        batch.begin(plan, ptrs);
        std::vector<std::size_t> all(width), odd, last{width - 1};
        std::iota(all.begin(), all.end(), std::size_t{0});
        for (std::size_t i = 1; i < width; i += 2) odd.push_back(i);
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (slots[s] == nullptr) continue;
          for (const std::vector<std::size_t>& lanes : {all, odd, last}) {
            SCOPED_TRACE("n " + std::to_string(n) + " shared " +
                         std::to_string(shared != nullptr) + " width " +
                         std::to_string(width) + " slot " + std::to_string(s) +
                         " lanes " + std::to_string(lanes.size()));
            if (lanes.empty()) continue;
            const linalg::Matrix x = batch.features(s, *slots[s], lanes, SIZE_MAX);
            ASSERT_EQ(x.cols(), lanes.size());
            for (std::size_t i = 0; i < lanes.size(); ++i) {
              const linalg::Vector& ref = alone[s][lanes[i]];
              ASSERT_EQ(x.rows(), ref.size());
              for (std::size_t c = 0; c < ref.size(); ++c) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(x(c, i)),
                          std::bit_cast<std::uint64_t>(ref[c]))
                    << "lane " << lanes[i] << " component " << c;
              }
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GatherPlanTest,
                         ::testing::Values(dsp::CwtBackend::kAuto,
                                           dsp::CwtBackend::kDirect,
                                           dsp::CwtBackend::kSpectral));

TEST(GatherPlan, RejectsLevelsThatReadTheWindowDifferently) {
  std::mt19937_64 rng(47);
  features::PipelineConfig cfg;
  std::vector<stats::GridPoint> points;
  place(points, 3, 8, 10, 5);
  const features::FeaturePipeline a = placed_pipeline(cfg, points, rng);
  cfg.per_trace_normalization = !cfg.per_trace_normalization;
  const features::FeaturePipeline b = placed_pipeline(cfg, points, rng);
  cfg.per_trace_normalization = !cfg.per_trace_normalization;
  cfg.cwt.kernel_radius = 3.0;
  const features::FeaturePipeline c = placed_pipeline(cfg, points, rng);
  for (const features::FeaturePipeline* other : {&b, &c}) {
    for (const std::vector<const features::FeaturePipeline*>& slots :
         {std::vector{&a, other}, std::vector{other, &a}}) {
      EXPECT_THROW(features::GatherPlan{slots}, std::invalid_argument);
    }
  }
}

TEST(FeaturesBatch, ChunkedTransformsMatchTheScalarReferenceAcrossLengthChanges) {
  // Every batched transform cuts its corpus into runs of at most
  // features::kSoaChunk consecutive equal-length windows.  This corpus
  // changes length between runs of 1, 15, 16, 17 and 33 windows (none, one
  // short, exactly one, one past and two past a chunk), then ends with 5
  // short windows around a zero-length one; its classes split the runs
  // unevenly.  A chunk that straddled a length change would fail to marshal.
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng(31);
  std::vector<sim::TraceSet> profiling;
  features::LabeledTraces input{{0, 1, 2}, {}};
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi, avr::Mnemonic::kMov}) {
    profiling.push_back(campaign.capture_class(*avr::class_index(m), 30, 5, rng));
  }
  for (const auto& set : profiling) input.sets.push_back(&set);
  features::PipelineConfig cfg = core::csa_config();
  cfg.pca_components = 12;
  std::vector<features::FeaturePipeline::ClassData> classes =
      features::FeaturePipeline::precompute(input, cfg);

  std::vector<std::size_t> lengths;
  const std::size_t runs[] = {1, 15, 16, 17, 33};
  for (std::size_t r = 0; r < std::size(runs); ++r) {
    lengths.insert(lengths.end(), runs[r], r % 2 == 0 ? 315 : 250);
  }
  for (const std::size_t n : {120, 120, 0, 120, 120}) lengths.push_back(n);
  std::vector<sim::TraceSet> sets(3);
  std::normal_distribution<double> noise(0.0, 1.0);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    sim::Trace t;
    t.samples.resize(lengths[i]);
    for (double& v : t.samples) v = noise(rng);
    t.meta.gain_estimate = 0.5 + 0.01 * static_cast<double>(i);
    sets[i < 20 ? 0 : i < 70 ? 1 : 2].push_back(std::move(t));
  }
  const features::LabeledTraces corpus{{7, 8, 9}, {&sets[0], &sets[1], &sets[2]}};
  // Training pass 2 reads the classes' preprocessed windows: the corpus.
  std::vector<const features::FeaturePipeline::ClassData*> fit_input;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    classes[c].preprocessed.clear();
    for (const sim::Trace& t : sets[c]) {
      sim::Trace prepared = t;
      prepared.samples = features::FeaturePipeline::preprocess_window(
          t, cfg.per_trace_normalization);
      classes[c].preprocessed.push_back(std::move(prepared));
    }
    fit_input.push_back(&classes[c]);
  }

  for (const std::size_t workers : {1, 3, 8}) {
    cfg.workers = workers;
    for (const std::size_t bytes : lane_widths()) {
      const LaneWidth width(bytes);
      SCOPED_TRACE("workers " + std::to_string(workers) + " width " + std::to_string(bytes));
      const features::FeaturePipeline pipeline = features::FeaturePipeline::fit(fit_input, cfg);
      // fit's scaler against the scalar rows of the same windows.
      std::vector<linalg::Vector> raw;
      for (const auto& c : classes) {
        for (const sim::Trace& t : c.preprocessed) {
          raw.push_back(
              reference::raw_features(pipeline.cwt(), t.samples, pipeline.unified_points()));
        }
      }
      const stats::ColumnScaler ref = stats::ColumnScaler::fit(linalg::Matrix::from_rows(raw));
      ASSERT_EQ(pipeline.scaler().dim(), ref.dim());
      for (std::size_t p = 0; p < ref.dim(); ++p) {
        ASSERT_EQ(reference::bits(pipeline.scaler().mean()[p]), reference::bits(ref.mean()[p]))
            << "point " << p;
        ASSERT_EQ(reference::bits(pipeline.scaler().stddev()[p]),
                  reference::bits(ref.stddev()[p]))
            << "point " << p;
      }

      const ml::Dataset ds = pipeline.transform(corpus);
      ASSERT_EQ(ds.size(), lengths.size());
      std::size_t row = 0;
      for (std::size_t c = 0; c < sets.size(); ++c) {
        for (const sim::Trace& t : sets[c]) {
          const linalg::Vector want = reference::features_of(pipeline, t);
          ASSERT_EQ(ds.dim(), want.size());
          ASSERT_EQ(ds.y[row], corpus.labels[c]);
          for (std::size_t k = 0; k < want.size(); ++k) {
            ASSERT_EQ(reference::bits(ds.x(row, k)), reference::bits(want[k]))
                << "window " << row << " (length " << lengths[row] << ") component " << k;
          }
          ++row;
        }
      }
    }
  }
}

TEST(FeaturesBatch, ProjectSoaMatchesProjectAtEveryLaneWidth) {
  std::mt19937_64 rng(73);
  std::vector<stats::GridPoint> points;
  place(points, 3, 9, 10, 5);
  place(points, 7, 4, 2, 11);
  for (const bool standardize : {true, false}) {
    features::PipelineConfig cfg;
    cfg.column_standardization = standardize;
    const features::FeaturePipeline pipeline = placed_pipeline(cfg, points, rng);
    const std::size_t fitted = pipeline.max_components();
    ASSERT_EQ(fitted, 6u);
    // The pipeline's points sit at scattered rows of a wider gathered block.
    const std::size_t block_rows = 2 * points.size() + 3;
    std::vector<std::size_t> rows;
    for (std::size_t p = 0; p < points.size(); ++p) rows.push_back(block_rows - 1 - 2 * p);

    for (const std::size_t bytes : lane_widths()) {
      const LaneWidth width(bytes);
      for (const std::size_t lanes : sweep_lanes()) {
        std::vector<double> gathered(block_rows * lanes);
        for (double& g : gathered) g = random_signal(1, rng)[0];
        std::vector<std::size_t> odd;
        for (std::size_t i = 1; i < lanes; i += 2) odd.push_back(i);
        std::vector<std::size_t> all(lanes);
        std::iota(all.begin(), all.end(), std::size_t{0});
        // Every component count: 1..6 run every remainder of a 2-, 4- and
        // 8-row interleave.
        for (std::size_t components = 1; components <= fitted; ++components) {
          for (const std::vector<std::size_t>& pick : {all, odd}) {
            if (pick.empty()) continue;
            const linalg::Matrix z = pipeline.project_soa(
                gathered.data(), lanes, rows,
                pick.size() == lanes ? std::span<const std::size_t>{}
                                     : std::span<const std::size_t>(pick),
                components);
            ASSERT_EQ(z.rows(), components);
            ASSERT_EQ(z.cols(), pick.size());
            for (std::size_t i = 0; i < pick.size(); ++i) {
              linalg::Vector raw(rows.size());
              for (std::size_t p = 0; p < rows.size(); ++p) {
                raw[p] = gathered[rows[p] * lanes + pick[i]];
              }
              const linalg::Vector ref = reference::project(pipeline, raw, components);
              for (std::size_t c = 0; c < components; ++c) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(z(c, i)),
                          std::bit_cast<std::uint64_t>(ref[c]))
                    << "standardize " << standardize << " width " << bytes << " lanes "
                    << lanes << " components " << components << " column " << pick[i]
                    << " component " << c;
              }
            }
          }
        }
      }
    }
  }
}

// -- hierarchical classify_batch ----------------------------------------------

class BatchModelFixture : public ::testing::Test {
 protected:
  /// Every batch width the walk tests run, as prefixes of their pool: odd
  /// widths put sub-16 remainders on every level's tiles.
  static constexpr std::size_t kBatchSizes[] = {1, 2, 3, 5, 7, 15, 16, 31, 64};

  static const core::HierarchicalDisassembler& model() {
    static const core::HierarchicalDisassembler m = train(ml::ClassifierKind::kQda);
    return m;
  }

  /// Hard-decision twin: kNN exposes no score surface, so every class level
  /// of the scored path folds a one-hot posterior factor.
  static const core::HierarchicalDisassembler& knn_model() {
    static const core::HierarchicalDisassembler m = train(ml::ClassifierKind::kKnn);
    return m;
  }

  /// The QDA twin trained on CWT backend kDirect or kSpectral (kAuto is
  /// model()).
  static const core::HierarchicalDisassembler& backend_model(dsp::CwtBackend backend) {
    static const core::HierarchicalDisassembler direct =
        train(ml::ClassifierKind::kQda, dsp::CwtBackend::kDirect);
    static const core::HierarchicalDisassembler spectral =
        train(ml::ClassifierKind::kQda, dsp::CwtBackend::kSpectral);
    return backend == dsp::CwtBackend::kDirect ? direct : spectral;
  }

  static const core::ProfilingData& profiling_data() {
    static const core::ProfilingData data = [] {
      sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
      std::mt19937_64 rng{31};
      core::ProfilingData d;
      for (avr::Mnemonic mn : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi,
                               avr::Mnemonic::kCom, avr::Mnemonic::kRjmp}) {
        d.classes[*avr::class_index(mn)] =
            campaign.capture_class(*avr::class_index(mn), 50, 5, rng);
      }
      for (std::uint8_t r : {4, 20}) {
        d.rd_classes[r] = campaign.capture_register(true, r, 120, 5, rng);
        d.rr_classes[r] = campaign.capture_register(false, r, 120, 5, rng);
      }
      return d;
    }();
    return data;
  }

  /// Two classes per group where the profiled set allows (ADD/AND in group
  /// 1, COM/LSR in group 3, LDI alone in group 2), so a group the scored
  /// walk skips spreads its mass differently from its level-2 model.
  static const core::ProfilingData& grouped_data() {
    static const core::ProfilingData data = [] {
      sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
      std::mt19937_64 rng{59};
      core::ProfilingData d;
      for (const std::size_t c : grouped_classes()) {
        d.classes[c] = campaign.capture_class(c, 50, 5, rng);
      }
      return d;
    }();
    return data;
  }

  static std::vector<std::size_t> grouped_classes() {
    std::vector<std::size_t> out;
    for (avr::Mnemonic mn : {avr::Mnemonic::kAdd, avr::Mnemonic::kAnd, avr::Mnemonic::kLdi,
                             avr::Mnemonic::kCom, avr::Mnemonic::kLsr}) {
      out.push_back(*avr::class_index(mn));
    }
    return out;
  }

  static const core::HierarchicalDisassembler& grouped_model() {
    static const core::HierarchicalDisassembler m =
        train(ml::ClassifierKind::kQda, dsp::CwtBackend::kAuto, grouped_data());
    return m;
  }

  /// Windows of grouped_classes() in two length buckets, clean and from an
  /// off-distribution corner, with every third window an even blend of two
  /// classes from different groups: blends leave a second group within
  /// reach of the best, clean windows put every other group far out.
  static sim::TraceSet grouped_windows(std::size_t n) {
    sim::AcquisitionCampaign clean{sim::DeviceModel::make(0), sim::SessionContext::make(0)};
    sim::AcquisitionCampaign corner{sim::DeviceModel::make(7), sim::SessionContext::make(3)};
    const std::vector<std::size_t> classes = grouped_classes();
    std::mt19937_64 rng{61};
    const auto capture = [&](std::size_t i, std::size_t c) {
      sim::AcquisitionCampaign& campaign = i % 5 == 4 ? corner : clean;
      return campaign.capture_trace(avr::random_instance(c, rng),
                                    sim::ProgramContext::make(static_cast<int>(i % 6)), rng);
    };
    sim::TraceSet out;
    for (std::size_t i = 0; i < n; ++i) {
      sim::Trace t = capture(i, classes[i % classes.size()]);
      if (i % 3 == 2) {
        const sim::Trace other = capture(i, classes[(i + 2) % classes.size()]);
        for (std::size_t k = 0; k < t.samples.size(); ++k) {
          t.samples[k] = 0.5 * (t.samples[k] + other.samples[k]);
        }
      }
      if (i % 4 == 1) t.samples.resize(250);
      out.push_back(std::move(t));
    }
    return out;
  }

  static core::HierarchicalDisassembler train(
      ml::ClassifierKind kind, dsp::CwtBackend backend = dsp::CwtBackend::kAuto,
      const core::ProfilingData& data = profiling_data()) {
    core::HierarchicalConfig cfg;
    cfg.pipeline = core::csa_config();
    cfg.pipeline.cwt.backend = backend;
    cfg.pipeline.pca_components = 10;
    cfg.group_components = 8;
    cfg.instruction_components = 8;
    cfg.register_components = 10;
    cfg.factory.discriminant.shrinkage = 0.15;
    cfg.factory.knn_k = 3;
    cfg.classifier = kind;
    auto model = core::HierarchicalDisassembler::train(data, cfg);
    // Armed gates make verdict/headroom equality a real statement.
    model.calibrate_reject(data, core::RejectOperatingPoint::kBalanced);
    return model;
  }

  /// mixed_windows(n) over several length buckets: the native length, a
  /// truncated one, one far shorter than the coarse kernels' support (its
  /// late feature points fall past the window end), and zero-length
  /// windows.  Every prefix of 7 or more windows spans them all.
  static sim::TraceSet mixed_length_windows(std::size_t n) {
    sim::TraceSet pool = mixed_windows(n);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i % 8 == 2) pool[i].samples.resize(250);
      if (i % 8 == 4 || i % 8 == 5) pool[i].samples.resize(40);
      if (i % 8 == 6) pool[i].samples.clear();
    }
    return pool;
  }

  /// The walk's labels against the model's per-level entry points, each of
  /// which runs its level's own FeaturePipeline alone.
  static void expect_levels_match(const core::HierarchicalDisassembler& m,
                                  const core::Disassembly& d, const sim::Trace& t,
                                  std::size_t window) {
    EXPECT_EQ(d.group, m.classify_group(t)) << "window " << window;
    EXPECT_EQ(d.class_idx, m.classify_within_group(d.group, t)) << "window " << window;
    if (avr::class_uses_rd(d.class_idx)) {
      EXPECT_EQ(d.rd, m.classify_rd(t)) << "window " << window;
    } else {
      EXPECT_FALSE(d.rd.has_value()) << "window " << window;
    }
    if (avr::class_uses_rr(d.class_idx)) {
      EXPECT_EQ(d.rr, m.classify_rr(t)) << "window " << window;
    } else {
      EXPECT_FALSE(d.rr.has_value()) << "window " << window;
    }
  }

  /// Both walks at every batch width over prefixes of `pool` give the
  /// per-level entry points' labels, and the scored walk the one-window
  /// posterior, bit for bit.
  static void expect_walks_match_levels(const core::HierarchicalDisassembler& m,
                                        const sim::TraceSet& pool) {
    std::vector<core::Disassembly> scored;
    for (const sim::Trace& t : pool) scored.push_back(m.classify_scored(t));
    for (const std::size_t k : kBatchSizes) {
      SCOPED_TRACE("batch size " + std::to_string(k));
      const sim::TraceSet windows(pool.begin(), pool.begin() + static_cast<long>(k));
      const std::vector<core::Disassembly> plain = m.classify_batch(windows);
      const std::vector<core::Disassembly> batch_scored = m.classify_batch_scored(windows);
      for (std::size_t i = 0; i < k; ++i) {
        expect_levels_match(m, plain[i], windows[i], i);
        expect_levels_match(m, batch_scored[i], windows[i], i);
        expect_identical_scored(batch_scored[i], scored[i], i);
      }
    }
  }

  /// Mixed-content eval pool: several classes, several programs, plus
  /// off-distribution windows from a different process corner and session so
  /// the reject gates actually trip on some windows.
  static sim::TraceSet mixed_windows(std::size_t n) {
    sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                   sim::SessionContext::make(0)};
    sim::AcquisitionCampaign corner{sim::DeviceModel::make(7),
                                    sim::SessionContext::make(3)};
    std::mt19937_64 rng{37};
    const std::size_t classes[] = {*avr::class_index(avr::Mnemonic::kAdd),
                                   *avr::class_index(avr::Mnemonic::kLdi),
                                   *avr::class_index(avr::Mnemonic::kCom),
                                   *avr::class_index(avr::Mnemonic::kRjmp)};
    sim::TraceSet out;
    for (std::size_t i = 0; i < n; ++i) {
      sim::AcquisitionCampaign& campaign = i % 5 == 4 ? corner : clean;
      out.push_back(campaign.capture_trace(
          avr::random_instance(classes[i % 4], rng),
          sim::ProgramContext::make(static_cast<int>(i % 6)), rng));
    }
    return out;
  }

  static void expect_identical(const core::Disassembly& batch,
                               const core::Disassembly& single,
                               std::size_t window) {
    EXPECT_EQ(batch.group, single.group) << "window " << window;
    EXPECT_EQ(batch.class_idx, single.class_idx) << "window " << window;
    EXPECT_EQ(batch.rd, single.rd) << "window " << window;
    EXPECT_EQ(batch.rr, single.rr) << "window " << window;
    EXPECT_EQ(batch.verdict, single.verdict) << "window " << window;
    EXPECT_EQ(batch.margin_headroom, single.margin_headroom) << "window " << window;
    EXPECT_EQ(batch.score_headroom, single.score_headroom) << "window " << window;
  }

  /// expect_identical plus the log-posterior, compared bit for bit.
  static void expect_identical_scored(const core::Disassembly& batch,
                                      const core::Disassembly& single,
                                      std::size_t window) {
    expect_identical(batch, single, window);
    ASSERT_EQ(batch.log_posterior.size(), single.log_posterior.size())
        << "window " << window;
    for (std::size_t c = 0; c < single.log_posterior.size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.log_posterior[c]),
                std::bit_cast<std::uint64_t>(single.log_posterior[c]))
          << "window " << window << " class " << c;
    }
  }

  /// classify_batch and classify_batch_scored over prefixes of `pool` at
  /// every batch size, against the per-window scalar calls.  The scored
  /// results must also keep the plain path's labels, verdicts and headrooms.
  static void expect_batches_match(const core::HierarchicalDisassembler& m,
                                   const sim::TraceSet& pool) {
    std::vector<core::Disassembly> plain, scored;
    for (const sim::Trace& t : pool) {
      plain.push_back(m.classify(t));
      scored.push_back(m.classify_scored(t));
      ASSERT_FALSE(scored.back().log_posterior.empty());
    }
    for (const std::size_t k : kBatchSizes) {
      const sim::TraceSet windows(pool.begin(), pool.begin() + static_cast<long>(k));
      const std::vector<core::Disassembly> batch = m.classify_batch(windows);
      const std::vector<core::Disassembly> batch_scored =
          m.classify_batch_scored(windows);
      ASSERT_EQ(batch.size(), k);
      ASSERT_EQ(batch_scored.size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        SCOPED_TRACE("batch size " + std::to_string(k));
        expect_identical(batch[i], plain[i], i);
        expect_identical_scored(batch_scored[i], scored[i], i);
        expect_identical(batch_scored[i], plain[i], i);
      }
    }
  }
};

TEST_F(BatchModelFixture, BitIdenticalAcrossBatchSizes) {
  const sim::TraceSet pool = mixed_windows(64);
  std::vector<core::Disassembly> reference;
  for (const sim::Trace& t : pool) reference.push_back(model().classify(t));
  // Some mixed-content windows must actually exercise the gates and the
  // operand levels, or the equality checks are vacuous.
  std::size_t gated = 0, with_rd = 0;
  for (const auto& d : reference) {
    if (d.verdict != core::Verdict::kOk) ++gated;
    if (d.rd.has_value()) ++with_rd;
  }
  EXPECT_GT(with_rd, 0u) << "eval pool never reached the register level";

  for (const std::size_t bytes : lane_widths()) {
    SCOPED_TRACE("lane width " + std::to_string(bytes));
    const LaneWidth width(bytes);
    expect_batches_match(model(), pool);
  }
}

TEST_F(BatchModelFixture, KnnModelBitIdenticalAcrossBatchSizes) {
  expect_batches_match(knn_model(), mixed_windows(64));
}

TEST_F(BatchModelFixture, BitIdenticalWithMixedTraceLengths) {
  sim::TraceSet pool = mixed_windows(12);
  // Three length buckets: the native window length (>= 2 windows), a
  // truncated length (>= 2 windows), and a short length (2 windows) below
  // the support of some feature points, whose coefficients must read 0 in
  // the batch CWT exactly as in the scalar one.
  for (std::size_t i = 0; i < 5; ++i) pool[i].samples.resize(250);
  pool[5].samples.resize(120);
  pool[6].samples.resize(120);

  const std::vector<core::Disassembly> batch = model().classify_batch(pool);
  const std::vector<core::Disassembly> batch_scored = model().classify_batch_scored(pool);
  ASSERT_EQ(batch.size(), pool.size());
  ASSERT_EQ(batch_scored.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    expect_identical(batch[i], model().classify(pool[i]), i);
    expect_identical_scored(batch_scored[i], model().classify_scored(pool[i]), i);
  }
}

TEST_F(BatchModelFixture, WalksMatchThePerLevelEntryPoints) {
  const sim::TraceSet pool = mixed_length_windows(64);
  for (const core::HierarchicalDisassembler* m : {&model(), &knn_model()}) {
    expect_walks_match_levels(*m, pool);
    expect_batches_match(*m, pool);
  }
}

TEST_F(BatchModelFixture, WalksMatchThePerLevelEntryPointsOnEveryCwtBackend) {
  // kAuto is model(), above.
  const sim::TraceSet pool = mixed_length_windows(64);
  for (const dsp::CwtBackend backend : {dsp::CwtBackend::kDirect, dsp::CwtBackend::kSpectral}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    expect_walks_match_levels(backend_model(backend), pool);
    expect_batches_match(backend_model(backend), pool);
  }
}

TEST_F(BatchModelFixture, GatherPlanOutlivesMovesReloadsAndRecalibration) {
  const sim::TraceSet pool = mixed_length_windows(64);
  const auto reload = [](const core::HierarchicalDisassembler& m) {
    std::stringstream archive;
    core::save_disassembler(archive, m);
    return core::load_disassembler(archive);
  };

  core::HierarchicalDisassembler loaded = reload(model());
  {
    SCOPED_TRACE("save/load round trip");
    expect_walks_match_levels(loaded, pool);
  }
  // A moved model's group level lives at a new address; the plan must not
  // care.
  core::HierarchicalDisassembler moved(std::move(loaded));
  {
    SCOPED_TRACE("move-constructed");
    expect_walks_match_levels(moved, pool);
  }
  core::HierarchicalDisassembler assigned;
  assigned = std::move(moved);
  {
    SCOPED_TRACE("move-assigned");
    expect_walks_match_levels(assigned, pool);
  }

  // Recalibration re-centres the scalers, refit retrains the classifiers;
  // neither moves a feature point.
  core::HierarchicalDisassembler recalibrated = reload(model());
  sim::AcquisitionCampaign corner{sim::DeviceModel::make(7), sim::SessionContext::make(3)};
  std::mt19937_64 rng{53};
  sim::TraceSet recal;
  for (const auto& [class_idx, traces] : profiling_data().classes) {
    (void)traces;
    const sim::TraceSet some = corner.capture_class(class_idx, 8, 2, rng);
    recal.insert(recal.end(), some.begin(), some.end());
  }
  recalibrated.recalibrate(recal, /*rescale=*/true);
  {
    SCOPED_TRACE("recalibrated");
    expect_walks_match_levels(recalibrated, pool);
  }
  core::HierarchicalDisassembler refit = reload(model());
  refit.refit_classifiers(profiling_data());
  {
    SCOPED_TRACE("refit");
    expect_walks_match_levels(refit, pool);
  }
}

TEST_F(BatchModelFixture, GroupSkipKeepsScoredBatchEqualToScalarInMixedBuckets) {
  const core::HierarchicalDisassembler& m = grouped_model();
  const sim::TraceSet pool = grouped_windows(64);
  const std::vector<core::Disassembly> scored = m.classify_batch_scored(pool);
  const std::vector<std::size_t>& support = m.posterior_classes();
  ASSERT_EQ(support.size(), 5u);

  // Per window and group: the marginal log P(group | x) read back from the
  // posterior, and whether the group's entries are all one value.
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> by_length;  // reach, skip
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const linalg::Vector& lp = scored[i].log_posterior;
    ASSERT_EQ(lp.size(), support.size());
    std::map<int, std::vector<double>> members;
    double total = 0.0;
    for (std::size_t c = 0; c < support.size(); ++c) {
      members[avr::group_of_class(support[c])].push_back(lp[c]);
      total += std::exp(lp[c]);
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "window " << i;
    std::map<int, double> marginal;
    double best = -std::numeric_limits<double>::infinity();
    for (const auto& [g, v] : members) {
      double mass = 0.0;
      for (const double x : v) mass += std::exp(x - v.front());
      marginal[g] = v.front() + std::log(mass);
      best = std::max(best, marginal[g]);
    }
    bool reach = false, skip = false;
    for (const auto& [g, v] : members) {
      if (v.size() < 2) continue;
      const double gap = best - marginal[g];
      const bool uniform = std::all_of(v.begin(), v.end(), [&](double x) {
        return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(v.front());
      });
      // A group out of reach of the best spreads its mass evenly; one in
      // reach carries its level-2 model's conditionals.
      const bool out_of_reach = gap > core::HierarchicalDisassembler::kGroupReach;
      if (std::abs(gap - core::HierarchicalDisassembler::kGroupReach) > 1e-9) {
        EXPECT_EQ(uniform, out_of_reach) << "window " << i << " group " << g << " gap " << gap;
      }
      if (g != scored[i].group) (out_of_reach ? skip : reach) = true;
    }
    auto& [reached, skipped] = by_length[pool[i].samples.size()];
    reached += reach ? 1 : 0;
    skipped += skip ? 1 : 0;
  }
  // Some length bucket mixes lanes that run a second level-2 model with
  // lanes that skip a two-class group.
  bool mixed = false;
  for (const auto& [length, counts] : by_length) {
    mixed = mixed || (counts.first > 0 && counts.second > 0);
  }
  EXPECT_TRUE(mixed);

  // Scored batch == scored scalar bit for bit at every width, and the scored
  // labels, verdicts and headrooms are the plain walk's.
  expect_batches_match(m, pool);
}

TEST_F(BatchModelFixture, StreamingBatchesAreWorkerCountInvariant) {
  const sim::TraceSet pool = mixed_windows(48);
  const std::vector<core::Disassembly> reference = model().classify_batch(pool);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    // Every pass waits until all 48 windows are admitted, so the fleet's
    // dispatcher, not the workers' pace, decides the batches: the first
    // `workers` windows leave one by one to idle workers, the backlog in
    // batch_max-wide batches (16, 16, then the rest).
    std::atomic<bool> admitted{false};
    const auto hold = [&admitted] {
      while (!admitted.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    runtime::FleetConfig cfg;
    cfg.shards = 1;
    cfg.workers_per_shard = workers;
    cfg.batch_max = 16;
    cfg.stream_credit = pool.size();
    runtime::FleetFrontend fleet(
        std::make_shared<const runtime::Stage>(runtime::Stage{
            [&](std::span<const sim::Trace> ts) {
              hold();
              return model().classify_batch(ts);
            },
            0}),
        cfg);
    const auto id = fleet.open_stream();
    for (const sim::Trace& t : pool) EXPECT_TRUE(fleet.submit(id, t).accepted());
    admitted.store(true);
    const std::vector<runtime::FleetResult> got = fleet.close_stream(id);
    ASSERT_EQ(got.size(), pool.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].stream_sequence, i) << "workers=" << workers;
      expect_identical(got[i].value, reference[i], i);
    }

    // The amortization telemetry must reflect the batched passes.
    const runtime::RuntimeStats stats = fleet.stats().runtime;
    EXPECT_EQ(stats.batch_classified_windows, pool.size() - workers)
        << "workers=" << workers;
    EXPECT_EQ(stats.scalar_classified_windows, workers) << "workers=" << workers;
    EXPECT_EQ(stats.windows_per_batch.count(), 3u) << "workers=" << workers;
    EXPECT_GT(stats.batch_classify_nanos, 0u) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace sidis
