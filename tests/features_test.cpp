// Tests for KL feature selection and the end-to-end feature pipeline.
#include <gtest/gtest.h>

#include <random>

#include "core/csa.hpp"
#include "features/pipeline.hpp"
#include "features/selection.hpp"
#include "ml/discriminant.hpp"
#include "scalar_reference.hpp"
#include "sim/acquisition.hpp"

namespace sidis::features {
namespace {

/// Synthetic trace whose value at index 100 depends on the class and whose
/// value at index 200 depends on the program -- a minimal covariate-shift
/// microcosm that exercises the selection logic without the full simulator.
sim::Trace synthetic_trace(int cls, int program, std::mt19937_64& rng) {
  std::normal_distribution<double> noise(0.0, 0.05);
  sim::Trace t;
  t.samples.assign(315, 0.0);
  for (double& v : t.samples) v = noise(rng);
  // Class-dependent burst (stable across programs): -1 for class 0, +cls
  // for the others.
  const double burst = cls == 0 ? -1.0 : static_cast<double>(cls);
  for (int i = 95; i < 105; ++i) t.samples[static_cast<std::size_t>(i)] += burst;
  // Program-dependent burst (same for both classes).
  for (int i = 195; i < 205; ++i) {
    t.samples[static_cast<std::size_t>(i)] += 0.8 * program;
  }
  t.meta.class_idx = static_cast<std::size_t>(cls);
  t.meta.program_id = program;
  return t;
}

sim::TraceSet synthetic_set(int cls, int num_programs, std::size_t per_program,
                            std::mt19937_64& rng) {
  sim::TraceSet out;
  for (int p = 0; p < num_programs; ++p) {
    for (std::size_t i = 0; i < per_program; ++i) out.push_back(synthetic_trace(cls, p, rng));
  }
  return out;
}

TEST(Selection, MomentsSplitPerProgram) {
  std::mt19937_64 rng(1);
  const sim::TraceSet set = synthetic_set(0, 4, 10, rng);
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  const ClassMoments m = compute_class_moments(cwt, set);
  EXPECT_EQ(m.per_program.size(), 4u);
  EXPECT_EQ(m.trace_count, 40u);
  EXPECT_EQ(m.per_program_counts, (std::vector<std::size_t>{10, 10, 10, 10}));
}

TEST(Selection, WithinClassMapPeaksAtProgramDependentRegion) {
  std::mt19937_64 rng(2);
  const sim::TraceSet set = synthetic_set(0, 4, 30, rng);
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  const ClassMoments m = compute_class_moments(cwt, set);
  const linalg::Matrix w = within_class_kl_map(m);
  // The program-dependent burst sits around sample 200; KL there must exceed
  // KL at the class-dependent (but program-stable) burst near sample 100.
  double kl_at_200 = 0.0, kl_at_100 = 0.0;
  for (std::size_t j = 0; j < w.rows(); ++j) {
    kl_at_200 = std::max(kl_at_200, w(j, 200));
    kl_at_100 = std::max(kl_at_100, w(j, 100));
  }
  EXPECT_GT(kl_at_200, 10.0 * kl_at_100);
}

TEST(Selection, BetweenClassMapPeaksAtClassDependentRegion) {
  std::mt19937_64 rng(3);
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  const ClassMoments a = compute_class_moments(cwt, synthetic_set(0, 4, 30, rng));
  const ClassMoments b = compute_class_moments(cwt, synthetic_set(1, 4, 30, rng));
  const linalg::Matrix between = between_class_kl_map(a, b);
  double kl_at_100 = 0.0, kl_elsewhere = 0.0;
  for (std::size_t j = 0; j < between.rows(); ++j) {
    kl_at_100 = std::max(kl_at_100, between(j, 100));
    kl_elsewhere = std::max(kl_elsewhere, between(j, 280));
  }
  EXPECT_GT(kl_at_100, 20.0 * kl_elsewhere);
}

TEST(Selection, DnvpExcludesProgramSensitivePoints) {
  std::mt19937_64 rng(4);
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  const sim::TraceSet sa = synthetic_set(0, 4, 40, rng);
  const sim::TraceSet sb = synthetic_set(1, 4, 40, rng);
  const ClassMoments a = compute_class_moments(cwt, sa);
  const ClassMoments b = compute_class_moments(cwt, sb);
  const double th = 0.01 + within_class_noise_floor(a);
  const auto mask_a = nvp_mask(within_class_kl_map(a), th);
  const auto mask_b = nvp_mask(within_class_kl_map(b), th);
  const linalg::Matrix between = between_class_kl_map(a, b);
  const auto points = dnvp(between, mask_a, mask_b, 8);
  ASSERT_FALSE(points.empty());
  for (const auto& p : points) {
    // The program-dependent burst occupies samples ~195-205 (plus CWT smear);
    // no selected point may sit in it.
    EXPECT_TRUE(p.k < 160 || p.k > 240) << "selected program-sensitive point k=" << p.k;
  }
}

TEST(Selection, NoiseFloorShrinksWithCorpus) {
  std::mt19937_64 rng(5);
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  const ClassMoments small = compute_class_moments(cwt, synthetic_set(0, 3, 10, rng));
  const ClassMoments big = compute_class_moments(cwt, synthetic_set(0, 6, 40, rng));
  EXPECT_GT(within_class_noise_floor(small), within_class_noise_floor(big));
}

TEST(Selection, MomentsAreWorkerCountInvariant) {
  std::mt19937_64 rng(21);
  const sim::TraceSet set = synthetic_set(0, 3, 25, rng);
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  const ClassMoments seq = compute_class_moments(cwt, set, 1e-12, 1);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{5}}) {
    const ClassMoments par = compute_class_moments(cwt, set, 1e-12, workers);
    ASSERT_EQ(par.per_program.size(), seq.per_program.size());
    // Bit-identical, not merely close: the reduction runs in trace order
    // regardless of the worker count.
    for (std::size_t i = 0; i < seq.pooled.mean.data().size(); ++i) {
      ASSERT_EQ(par.pooled.mean.data()[i], seq.pooled.mean.data()[i]) << "workers=" << workers;
      ASSERT_EQ(par.pooled.var.data()[i], seq.pooled.var.data()[i]) << "workers=" << workers;
    }
    for (std::size_t p = 0; p < seq.per_program.size(); ++p) {
      for (std::size_t i = 0; i < seq.per_program[p].mean.data().size(); ++i) {
        ASSERT_EQ(par.per_program[p].mean.data()[i], seq.per_program[p].mean.data()[i]);
      }
    }
  }
}

TEST(Selection, UnifyPointsDeduplicates) {
  const std::vector<std::vector<stats::GridPoint>> pairs = {
      {{1, 2, 5.0}, {3, 4, 2.0}},
      {{1, 2, 5.0}, {7, 8, 9.0}},
  };
  const auto unified = unify_points(pairs);
  ASSERT_EQ(unified.size(), 3u);
  EXPECT_EQ(unified.front().j, 7u);  // sorted by value desc
}

TEST(Selection, ExtractFeaturesMatchesGrid) {
  std::mt19937_64 rng(6);
  const sim::Trace t = synthetic_trace(0, 0, rng);
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  const dsp::Scalogram s = cwt.transform(t.samples);
  const std::vector<stats::GridPoint> pts = {{5, 100, 0}, {20, 250, 0}};
  // The sparse extraction every pipeline runs: a one-lane gather.
  const std::vector<dsp::CwtPoint> cwt_pts = {{5, 100}, {20, 250}};
  std::vector<double> f(cwt_pts.size());
  cwt.gather_soa(t.samples, t.samples.size(), 1, cwt_pts, f);
  EXPECT_NEAR(f[0], s(5, 100), 1e-12);
  EXPECT_NEAR(f[1], s(20, 250), 1e-12);
  const linalg::Vector ref = reference::raw_features(cwt, t.samples, pts);
  EXPECT_EQ(reference::bits(f[0]), reference::bits(ref[0]));
  EXPECT_EQ(reference::bits(f[1]), reference::bits(ref[1]));
}

class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(7);
    a_train_ = synthetic_set(0, 5, 40, rng);
    b_train_ = synthetic_set(1, 5, 40, rng);
    a_test_ = synthetic_set(0, 5, 10, rng);
    b_test_ = synthetic_set(1, 5, 10, rng);
    cfg_.pca_components = 4;
    cfg_.kl_threshold = 0.01;
  }
  sim::TraceSet a_train_, b_train_, a_test_, b_test_;
  PipelineConfig cfg_;
};

TEST_F(PipelineFixture, FitTransformClassify) {
  const auto pipe = FeaturePipeline::fit({{0, 1}, {&a_train_, &b_train_}}, cfg_);
  EXPECT_FALSE(pipe.unified_points().empty());
  EXPECT_EQ(pipe.grid_size(), 50u * 315u);
  const ml::Dataset train = pipe.transform({{0, 1}, {&a_train_, &b_train_}});
  EXPECT_EQ(train.size(), a_train_.size() + b_train_.size());
  EXPECT_LE(train.dim(), 4u);
  ml::Qda qda;
  qda.fit(train);
  const ml::Dataset test = pipe.transform({{0, 1}, {&a_test_, &b_test_}});
  EXPECT_GE(qda.accuracy(test), 0.95);
}

TEST_F(PipelineFixture, ComponentTruncationAtTransform) {
  const auto pipe = FeaturePipeline::fit({{0, 1}, {&a_train_, &b_train_}}, cfg_);
  const linalg::Vector z2 = pipe.transform(a_test_.front(), 2);
  EXPECT_EQ(z2.size(), 2u);
  const linalg::Vector zfull = pipe.transform(a_test_.front());
  EXPECT_NEAR(z2[0], zfull[0], 1e-12);
  EXPECT_NEAR(z2[1], zfull[1], 1e-12);
}

TEST_F(PipelineFixture, PrecomputeSharedAcrossPairFits) {
  const auto data = FeaturePipeline::precompute({{0, 1}, {&a_train_, &b_train_}}, cfg_);
  ASSERT_EQ(data.size(), 2u);
  const auto pipe = FeaturePipeline::fit({&data[0], &data[1]}, cfg_);
  const auto direct = FeaturePipeline::fit({{0, 1}, {&a_train_, &b_train_}}, cfg_);
  // Same selection either way.
  ASSERT_EQ(pipe.unified_points().size(), direct.unified_points().size());
  for (std::size_t i = 0; i < pipe.unified_points().size(); ++i) {
    EXPECT_EQ(pipe.unified_points()[i].j, direct.unified_points()[i].j);
    EXPECT_EQ(pipe.unified_points()[i].k, direct.unified_points()[i].k);
  }
}

TEST_F(PipelineFixture, PerTraceNormalizationCancelsGain) {
  cfg_.per_trace_normalization = true;
  const auto pipe = FeaturePipeline::fit({{0, 1}, {&a_train_, &b_train_}}, cfg_);
  sim::Trace scaled = a_test_.front();
  const double g = 1.7;
  for (double& v : scaled.samples) v *= g;
  scaled.meta.gain_estimate = a_test_.front().meta.gain_estimate * g;
  const linalg::Vector z0 = pipe.transform(a_test_.front());
  const linalg::Vector z1 = pipe.transform(scaled);
  for (std::size_t i = 0; i < z0.size(); ++i) EXPECT_NEAR(z1[i], z0[i], 1e-9);
}

TEST_F(PipelineFixture, FitAndTransformAreWorkerCountInvariant) {
  cfg_.workers = 1;
  const auto seq = FeaturePipeline::fit({{0, 1}, {&a_train_, &b_train_}}, cfg_);
  const ml::Dataset seq_ds = seq.transform({{0, 1}, {&a_test_, &b_test_}});
  sim::TraceSet recal = a_test_;
  recal.insert(recal.end(), b_test_.begin(), b_test_.end());
  for (const std::size_t workers : {std::size_t{3}, std::size_t{8}}) {
    cfg_.workers = workers;
    const auto par = FeaturePipeline::fit({{0, 1}, {&a_train_, &b_train_}}, cfg_);
    // Identical selection...
    ASSERT_EQ(par.unified_points().size(), seq.unified_points().size());
    for (std::size_t i = 0; i < seq.unified_points().size(); ++i) {
      EXPECT_EQ(par.unified_points()[i].j, seq.unified_points()[i].j);
      EXPECT_EQ(par.unified_points()[i].k, seq.unified_points()[i].k);
      EXPECT_EQ(par.unified_points()[i].value, seq.unified_points()[i].value);
    }
    // ...and a bit-identical projection of unseen traces (scaler + PCA fitted
    // on the same matrix in the same order).
    const ml::Dataset par_ds = par.transform({{0, 1}, {&a_test_, &b_test_}});
    ASSERT_EQ(par_ds.x.data().size(), seq_ds.x.data().size());
    for (std::size_t i = 0; i < seq_ds.x.data().size(); ++i) {
      ASSERT_EQ(par_ds.x.data()[i], seq_ds.x.data()[i]) << "workers=" << workers;
    }
    EXPECT_EQ(par_ds.y, seq_ds.y);
    // ...and a bit-identical recalibrated scaler (its rows are extracted
    // across the workers, then summed in trace order).
    for (const bool rescale : {false, true}) {
      const FeaturePipeline seq_re = seq.renormalized(recal, rescale);
      const FeaturePipeline par_re = par.renormalized(recal, rescale);
      EXPECT_EQ(par_re.scaler().mean(), seq_re.scaler().mean())
          << "workers=" << workers << " rescale=" << rescale;
      EXPECT_EQ(par_re.scaler().stddev(), seq_re.scaler().stddev())
          << "workers=" << workers << " rescale=" << rescale;
    }
  }
}

TEST(PipelineFanOut, MasksPointsAndProjectionAreWorkerCountInvariant) {
  // Five classes give ten class pairs and five NVP masks, so both the
  // per-class mask pass and the class-pair selection run on several lanes.
  constexpr int kClasses = 5;
  std::mt19937_64 rng(11);
  std::vector<sim::TraceSet> train, test;
  LabeledTraces train_in, test_in;
  for (int c = 0; c < kClasses; ++c) {
    train.push_back(synthetic_set(c, 3, 12, rng));
    test.push_back(synthetic_set(c, 3, 4, rng));
  }
  for (int c = 0; c < kClasses; ++c) {
    train_in.labels.push_back(c);
    train_in.sets.push_back(&train[static_cast<std::size_t>(c)]);
    test_in.labels.push_back(c);
    test_in.sets.push_back(&test[static_cast<std::size_t>(c)]);
  }
  PipelineConfig cfg;
  cfg.pca_components = 6;
  cfg.kl_threshold = 0.01;

  const auto fit_at = [&](std::size_t workers) {
    cfg.workers = workers;
    auto data = FeaturePipeline::precompute(train_in, cfg);
    std::vector<const FeaturePipeline::ClassData*> ptrs;
    for (const auto& d : data) ptrs.push_back(&d);
    FeaturePipeline pipe = FeaturePipeline::fit(ptrs, cfg);
    return std::make_pair(std::move(data), std::move(pipe));
  };
  const auto [seq_data, seq] = fit_at(1);
  const ml::Dataset seq_ds = seq.transform(test_in);
  ASSERT_GT(seq.unified_points().size(), 5u);
  for (const std::size_t workers : {std::size_t{3}, std::size_t{8}}) {
    const auto [par_data, par] = fit_at(workers);
    ASSERT_EQ(par_data.size(), seq_data.size());
    for (std::size_t c = 0; c < seq_data.size(); ++c) {
      EXPECT_EQ(par_data[c].mask, seq_data[c].mask) << "class " << c << " workers=" << workers;
    }
    ASSERT_EQ(par.unified_points().size(), seq.unified_points().size());
    for (std::size_t i = 0; i < seq.unified_points().size(); ++i) {
      EXPECT_EQ(par.unified_points()[i].j, seq.unified_points()[i].j);
      EXPECT_EQ(par.unified_points()[i].k, seq.unified_points()[i].k);
      EXPECT_EQ(par.unified_points()[i].value, seq.unified_points()[i].value);
    }
    const ml::Dataset par_ds = par.transform(test_in);
    ASSERT_EQ(par_ds.x.data().size(), seq_ds.x.data().size());
    for (std::size_t i = 0; i < seq_ds.x.data().size(); ++i) {
      ASSERT_EQ(par_ds.x.data()[i], seq_ds.x.data()[i]) << "workers=" << workers;
    }
    EXPECT_EQ(par_ds.y, seq_ds.y);
  }
}

TEST_F(PipelineFixture, BatchedTransformMatchesPerTrace) {
  const auto pipe = FeaturePipeline::fit({{0, 1}, {&a_train_, &b_train_}}, cfg_);
  const ml::Dataset batched = pipe.transform(LabeledTraces{{0}, {&a_test_}});
  ASSERT_EQ(batched.size(), a_test_.size());
  for (std::size_t i = 0; i < a_test_.size(); ++i) {
    const linalg::Vector one = pipe.transform(a_test_[i]);
    const linalg::Vector ref = reference::features_of(pipe, a_test_[i]);
    ASSERT_EQ(one.size(), ref.size());
    for (std::size_t c = 0; c < one.size(); ++c) {
      EXPECT_EQ(reference::bits(batched.x(i, c)), reference::bits(one[c])) << "trace " << i;
      EXPECT_EQ(reference::bits(one[c]), reference::bits(ref[c])) << "trace " << i;
    }
    EXPECT_EQ(batched.y[i], 0);
  }
}

TEST_F(PipelineFixture, InvalidInputsThrow) {
  EXPECT_THROW(FeaturePipeline::fit({{0}, {&a_train_}}, cfg_), std::invalid_argument);
  sim::TraceSet empty;
  EXPECT_THROW(FeaturePipeline::fit({{0, 1}, {&a_train_, &empty}}, cfg_),
               std::invalid_argument);
  FeaturePipeline unfitted;
  EXPECT_THROW(unfitted.transform(a_test_.front()), std::runtime_error);
}

TEST(CsaConfigs, EncodeThePaperSettings) {
  const PipelineConfig off = core::without_csa_config();
  const PipelineConfig mid = core::csa_without_norm_config();
  const PipelineConfig on = core::csa_config();
  EXPECT_DOUBLE_EQ(off.kl_threshold, 0.005);
  EXPECT_DOUBLE_EQ(mid.kl_threshold, 0.0005);
  EXPECT_DOUBLE_EQ(on.kl_threshold, 0.0005);
  EXPECT_FALSE(off.per_trace_normalization);
  EXPECT_FALSE(mid.per_trace_normalization);
  EXPECT_TRUE(on.per_trace_normalization);
  EXPECT_FALSE(off.adaptive_threshold);
  EXPECT_TRUE(mid.adaptive_threshold);
}

}  // namespace
}  // namespace sidis::features
