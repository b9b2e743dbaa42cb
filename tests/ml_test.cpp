// Unit tests for datasets, classifiers, metrics and cross-validation.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ml/crossval.hpp"
#include "ml/dataset.hpp"
#include "ml/discriminant.hpp"
#include "ml/factory.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/svm.hpp"

namespace sidis::ml {
namespace {

/// Two Gaussian blobs in 2-D, linearly separable when `gap` is large.
Dataset two_blobs(std::size_t per_class, double gap, std::mt19937_64& rng,
                  double sigma = 0.5) {
  std::normal_distribution<double> noise(0.0, sigma);
  std::vector<linalg::Vector> rows;
  std::vector<int> y;
  for (std::size_t i = 0; i < per_class; ++i) {
    rows.push_back({-gap / 2 + noise(rng), noise(rng)});
    y.push_back(0);
    rows.push_back({gap / 2 + noise(rng), noise(rng)});
    y.push_back(1);
  }
  Dataset d;
  d.x = linalg::Matrix::from_rows(rows);
  d.y = std::move(y);
  return d;
}

/// XOR-style dataset: only non-linear classifiers can solve it.
Dataset xor_blobs(std::size_t per_quadrant, std::mt19937_64& rng) {
  std::normal_distribution<double> noise(0.0, 0.2);
  std::vector<linalg::Vector> rows;
  std::vector<int> y;
  for (std::size_t i = 0; i < per_quadrant; ++i) {
    for (int sx = -1; sx <= 1; sx += 2) {
      for (int sy = -1; sy <= 1; sy += 2) {
        rows.push_back({sx + noise(rng), sy + noise(rng)});
        y.push_back(sx * sy > 0 ? 1 : 0);
      }
    }
  }
  Dataset d;
  d.x = linalg::Matrix::from_rows(rows);
  d.y = std::move(y);
  return d;
}

TEST(Dataset, ValidateAndLabels) {
  Dataset d;
  d.x = linalg::Matrix{{1, 2}, {3, 4}, {5, 6}};
  d.y = {2, 0, 2};
  EXPECT_NO_THROW(d.validate());
  EXPECT_EQ(d.labels(), (std::vector<int>{0, 2}));
  d.y.pop_back();
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(Dataset, RowsWithLabel) {
  Dataset d;
  d.x = linalg::Matrix{{1, 1}, {2, 2}, {3, 3}};
  d.y = {0, 1, 0};
  const linalg::Matrix m = d.rows_with_label(0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

TEST(Dataset, ConcatAndTruncate) {
  Dataset a, b;
  a.x = linalg::Matrix{{1, 2, 3}};
  a.y = {0};
  b.x = linalg::Matrix{{4, 5, 6}};
  b.y = {1};
  const Dataset c = Dataset::concat(a, b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.y, (std::vector<int>{0, 1}));
  const Dataset t = c.truncated(2);
  EXPECT_EQ(t.dim(), 2u);
  EXPECT_DOUBLE_EQ(t.x(1, 1), 5);
}

TEST(Dataset, StratifiedSplitPreservesClassBalance) {
  std::mt19937_64 rng(1);
  Dataset d = two_blobs(100, 2.0, rng);
  const Split s = stratified_split(d, 0.8, rng);
  EXPECT_EQ(s.train.size(), 160u);
  EXPECT_EQ(s.test.size(), 40u);
  int train0 = 0;
  for (int y : s.train.y) train0 += y == 0 ? 1 : 0;
  EXPECT_EQ(train0, 80);
}

TEST(Dataset, KFoldsPartitionAll) {
  std::mt19937_64 rng(2);
  Dataset d = two_blobs(30, 2.0, rng);
  const auto folds = k_folds(d, 4, rng);
  std::size_t total = 0;
  for (const Dataset& f : folds) total += f.size();
  EXPECT_EQ(total, d.size());
  EXPECT_THROW(k_folds(d, 1, rng), std::invalid_argument);
}

TEST(Dataset, ShuffleKeepsRowLabelPairs) {
  std::mt19937_64 rng(3);
  Dataset d;
  d.x = linalg::Matrix{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  d.y = {0, 1, 2, 3};
  shuffle(d, rng);
  for (std::size_t r = 0; r < d.size(); ++r) {
    EXPECT_DOUBLE_EQ(d.x(r, 0), static_cast<double>(d.y[r]));
  }
}

class ClassifierContract
    : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(ClassifierContract, SeparatesEasyBlobs) {
  std::mt19937_64 rng(4);
  const Dataset train = two_blobs(150, 4.0, rng);
  const Dataset test = two_blobs(50, 4.0, rng);
  auto clf = make_classifier(GetParam());
  clf->fit(train);
  EXPECT_GE(clf->accuracy(test), 0.97) << clf->name();
}

TEST_P(ClassifierContract, RejectsSingleClass) {
  Dataset d;
  d.x = linalg::Matrix{{1, 1}, {2, 2}, {1.5, 1.2}};
  d.y = {5, 5, 5};
  auto clf = make_classifier(GetParam());
  if (GetParam() == ClassifierKind::kKnn) {
    GTEST_SKIP() << "kNN accepts degenerate label sets by design";
  }
  EXPECT_THROW(clf->fit(d), std::invalid_argument) << clf->name();
}

TEST_P(ClassifierContract, PredictBeforeFitThrows) {
  auto clf = make_classifier(GetParam());
  EXPECT_THROW(clf->predict({1.0, 2.0}), std::runtime_error) << clf->name();
}

TEST_P(ClassifierContract, PreservesArbitraryLabelValues) {
  std::mt19937_64 rng(5);
  Dataset train = two_blobs(100, 4.0, rng);
  for (int& y : train.y) y = y == 0 ? -7 : 42;
  auto clf = make_classifier(GetParam());
  clf->fit(train);
  const int left = clf->predict({-2.0, 0.0});
  const int right = clf->predict({2.0, 0.0});
  EXPECT_EQ(left, -7) << clf->name();
  EXPECT_EQ(right, 42) << clf->name();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ClassifierContract,
                         ::testing::Values(ClassifierKind::kLda, ClassifierKind::kQda,
                                           ClassifierKind::kNaiveBayes,
                                           ClassifierKind::kSvmRbf,
                                           ClassifierKind::kSvmLinear,
                                           ClassifierKind::kKnn),
                         [](const ::testing::TestParamInfo<ClassifierKind>& param_info) {
                           std::string n = to_string(param_info.param);
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

TEST(Qda, LearnsDifferentCovariances) {
  // Same mean, different covariance: only QDA-style models can separate.
  std::mt19937_64 rng(6);
  std::normal_distribution<double> tight(0.0, 0.2), wide(0.0, 3.0);
  std::vector<linalg::Vector> rows;
  std::vector<int> y;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({tight(rng), tight(rng)});
    y.push_back(0);
    rows.push_back({wide(rng), wide(rng)});
    y.push_back(1);
  }
  Dataset train;
  train.x = linalg::Matrix::from_rows(rows);
  train.y = y;
  Qda qda;
  qda.fit(train);
  EXPECT_EQ(qda.predict({0.05, -0.05}), 0);
  EXPECT_EQ(qda.predict({4.0, 4.0}), 1);
  // LDA with the pooled covariance cannot beat chance here by much.
  Lda lda;
  lda.fit(train);
  EXPECT_GT(qda.accuracy(train), lda.accuracy(train));
}

TEST(Qda, ShrinkageInterpolatesTowardPooled) {
  std::mt19937_64 rng(7);
  const Dataset train = two_blobs(30, 3.0, rng);
  DiscriminantConfig full;
  full.shrinkage = 1.0;
  Qda shrunk(full);
  shrunk.fit(train);
  Lda lda;
  lda.fit(train);
  // With shrinkage = 1 QDA uses the pooled covariance: decisions match LDA.
  std::mt19937_64 rng2(8);
  const Dataset probe = two_blobs(50, 3.0, rng2);
  for (std::size_t r = 0; r < probe.size(); ++r) {
    EXPECT_EQ(shrunk.predict(probe.x.row_vector(r)), lda.predict(probe.x.row_vector(r)));
  }
}

TEST(Lda, ScoresOrderedByDistance) {
  std::mt19937_64 rng(9);
  const Dataset train = two_blobs(100, 4.0, rng);
  Lda lda;
  lda.fit(train);
  const linalg::Vector s = lda.scores({-2.0, 0.0});
  EXPECT_GT(s[0], s[1]);
}

TEST(NaiveBayes, HandlesIndependentFeatures) {
  std::mt19937_64 rng(10);
  const Dataset train = two_blobs(200, 3.0, rng);
  GaussianNaiveBayes nb;
  nb.fit(train);
  EXPECT_GE(nb.accuracy(train), 0.95);
  EXPECT_THROW(nb.predict({1.0}), std::invalid_argument);  // dim mismatch
}

TEST(Knn, OneNearestNeighbourIsExactOnTrain) {
  std::mt19937_64 rng(11);
  const Dataset train = two_blobs(50, 1.0, rng);
  Knn knn(1);
  knn.fit(train);
  EXPECT_DOUBLE_EQ(knn.accuracy(train), 1.0);
}

TEST(Knn, LargerKSmoothsNoise) {
  std::mt19937_64 rng(12);
  Dataset train = two_blobs(200, 3.0, rng);
  // Inject label noise.
  for (std::size_t i = 0; i < train.size(); i += 17) train.y[i] ^= 1;
  const Dataset test = two_blobs(100, 3.0, rng);
  Knn k1(1), k9(9);
  k1.fit(train);
  k9.fit(train);
  EXPECT_GT(k9.accuracy(test), k1.accuracy(test));
  EXPECT_THROW(Knn(0), std::invalid_argument);
}

TEST(Svm, RbfSolvesXor) {
  std::mt19937_64 rng(13);
  const Dataset train = xor_blobs(60, rng);
  const Dataset test = xor_blobs(25, rng);
  Svm rbf;  // auto gamma
  rbf.fit(train);
  EXPECT_GE(rbf.accuracy(test), 0.95);
  // A linear machine cannot get much past chance on XOR.
  SvmConfig lin;
  lin.kernel = KernelType::kLinear;
  Svm linear(lin);
  linear.fit(train);
  EXPECT_LE(linear.accuracy(test), 0.8);
}

TEST(Svm, OneVsOneMachineCount) {
  std::mt19937_64 rng(14);
  std::normal_distribution<double> noise(0.0, 0.2);
  std::vector<linalg::Vector> rows;
  std::vector<int> y;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 30; ++i) {
      rows.push_back({c * 3.0 + noise(rng), noise(rng)});
      y.push_back(c);
    }
  }
  Dataset train;
  train.x = linalg::Matrix::from_rows(rows);
  train.y = y;
  Svm svm;
  svm.fit(train);
  EXPECT_EQ(svm.num_machines(), 6u);  // C(4,2)
  EXPECT_GE(svm.accuracy(train), 0.99);
}

TEST(BinarySvm, RejectsBadLabels) {
  BinarySvm svm;
  const linalg::Matrix x{{0, 0}, {1, 1}};
  EXPECT_THROW(svm.fit(x, {1, 0}), std::invalid_argument);
  EXPECT_THROW(svm.fit(x, {1}), std::invalid_argument);
}

TEST(Metrics, AccuracyAndConfusion) {
  const std::vector<int> truth{0, 0, 1, 1, 2};
  const std::vector<int> pred{0, 1, 1, 1, 2};
  EXPECT_DOUBLE_EQ(accuracy(truth, pred), 0.8);

  ConfusionMatrix cm({0, 1, 2});
  cm.add_all(truth, pred);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(cm.recall(0), 0.5);
  EXPECT_DOUBLE_EQ(cm.recall(1), 1.0);
  EXPECT_THROW(cm.add(9, 0), std::invalid_argument);
  EXPECT_FALSE(cm.to_string().empty());
}

TEST(CrossVal, ScoresNearTestAccuracy) {
  std::mt19937_64 rng(15);
  const Dataset data = two_blobs(120, 4.0, rng);
  const double cv = cross_val_accuracy([] { return std::make_unique<Lda>(); }, data, 4,
                                       rng);
  EXPECT_GE(cv, 0.95);
}

TEST(CrossVal, SvmGridSearchPicksReasonablePoint) {
  std::mt19937_64 rng(16);
  const Dataset data = two_blobs(60, 3.0, rng);
  const GridSearchResult r =
      svm_grid_search(data, rng, {1.0, 10.0}, {0.1, 1.0}, 3);
  EXPECT_EQ(r.all.size(), 4u);
  EXPECT_GE(r.best_accuracy, 0.9);
}

TEST(Factory, NamesMatchKinds) {
  EXPECT_EQ(to_string(ClassifierKind::kQda), "QDA");
  EXPECT_EQ(to_string(ClassifierKind::kSvmRbf), "SVM");
  EXPECT_EQ(make_classifier(ClassifierKind::kLda)->name(), "LDA");
  EXPECT_EQ(make_classifier(ClassifierKind::kKnn)->name(), "kNN(k=1)");
}

}  // namespace
}  // namespace sidis::ml
