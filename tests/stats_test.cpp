// Unit tests for the statistics layer: Gaussian models, KL divergence, PCA,
// peak finding, normalization.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "stats/gaussian.hpp"
#include "stats/kl.hpp"
#include "stats/pca.hpp"
#include "stats/peaks.hpp"
#include "stats/standardize.hpp"

namespace sidis::stats {
namespace {

TEST(Gaussian1D, FitRecoversMoments) {
  std::mt19937_64 rng(1);
  std::normal_distribution<double> d(3.0, 2.0);
  std::vector<double> x(20000);
  for (double& v : x) v = d(rng);
  const Gaussian1D g = Gaussian1D::fit(x);
  EXPECT_NEAR(g.mean, 3.0, 0.05);
  EXPECT_NEAR(g.var, 4.0, 0.15);
}

TEST(Gaussian1D, PdfIntegratesToOne) {
  const Gaussian1D g{1.0, 0.25};
  double integral = 0.0;
  for (double x = -5; x <= 7; x += 0.001) integral += g.pdf(x) * 0.001;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Gaussian1D, VarianceClampedForConstantData) {
  const std::vector<double> x(10, 2.0);
  const Gaussian1D g = Gaussian1D::fit(x, 1e-6);
  EXPECT_DOUBLE_EQ(g.mean, 2.0);
  EXPECT_DOUBLE_EQ(g.var, 1e-6);
}

TEST(Gaussian1D, FitRejectsEmpty) {
  EXPECT_THROW(Gaussian1D::fit(std::span<const double>{}), std::invalid_argument);
}

TEST(MultivariateGaussian, LogPdfMatchesUnivariate) {
  const auto g = MultivariateGaussian::from_moments({1.5}, linalg::Matrix{{0.49}}, 0.0);
  const Gaussian1D u{1.5, 0.49};
  for (double x : {-1.0, 0.0, 1.5, 3.0}) {
    EXPECT_NEAR(g.log_pdf({x}), u.log_pdf(x), 1e-10);
  }
}

TEST(MultivariateGaussian, FitRecoversDiagonalCovariance) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> d1(0.0, 1.0), d2(5.0, 3.0);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 20000; ++i) rows.push_back({d1(rng), d2(rng)});
  const auto g = MultivariateGaussian::fit(linalg::Matrix::from_rows(rows));
  EXPECT_NEAR(g.mean()[0], 0.0, 0.05);
  EXPECT_NEAR(g.mean()[1], 5.0, 0.1);
  EXPECT_NEAR(g.covariance()(0, 0), 1.0, 0.1);
  EXPECT_NEAR(g.covariance()(1, 1), 9.0, 0.4);
  EXPECT_NEAR(g.covariance()(0, 1), 0.0, 0.1);
}

TEST(MultivariateGaussian, RegularizesSingularCovariance) {
  // Two identical columns: singular covariance must be ridged until SPD.
  std::vector<linalg::Vector> rows;
  std::mt19937_64 rng(3);
  std::normal_distribution<double> d(0, 1);
  for (int i = 0; i < 50; ++i) {
    const double v = d(rng);
    rows.push_back({v, v});
  }
  EXPECT_NO_THROW(MultivariateGaussian::fit(linalg::Matrix::from_rows(rows)));
}

TEST(MultivariateGaussian, MahalanobisOfMeanIsZero) {
  const auto g = MultivariateGaussian::from_moments(
      {1.0, 2.0}, linalg::Matrix{{2.0, 0.3}, {0.3, 1.0}});
  EXPECT_NEAR(g.mahalanobis_squared({1.0, 2.0}), 0.0, 1e-12);
  EXPECT_GT(g.mahalanobis_squared({2.0, 2.0}), 0.0);
}

TEST(Kl, ZeroForIdenticalDistributions) {
  const Gaussian1D p{0.7, 2.0};
  EXPECT_NEAR(kl_gaussian(p, p), 0.0, 1e-12);
}

TEST(Kl, PositiveAndAsymmetric) {
  const Gaussian1D p{0.0, 1.0};
  const Gaussian1D q{1.0, 4.0};
  EXPECT_GT(kl_gaussian(p, q), 0.0);
  EXPECT_GT(kl_gaussian(q, p), 0.0);
  EXPECT_NE(kl_gaussian(p, q), kl_gaussian(q, p));
  EXPECT_NEAR(symmetric_kl_gaussian(p, q),
              kl_gaussian(p, q) + kl_gaussian(q, p), 1e-12);
}

TEST(Kl, MatchesClosedFormHandValue) {
  // KL(N(0,1) || N(1,1)) = 1/2.
  EXPECT_NEAR(kl_gaussian(Gaussian1D{0, 1}, Gaussian1D{1, 1}), 0.5, 1e-12);
  // KL(N(0,1) || N(0,4)) = (ln 4 + 1/4 - 1)/2.
  EXPECT_NEAR(kl_gaussian(Gaussian1D{0, 1}, Gaussian1D{0, 4}),
              0.5 * (std::log(4.0) + 0.25 - 1.0), 1e-12);
}

TEST(Kl, MultivariateMatchesUnivariateInOneDim) {
  const auto p = MultivariateGaussian::from_moments({0.0}, linalg::Matrix{{1.0}}, 0.0);
  const auto q = MultivariateGaussian::from_moments({1.0}, linalg::Matrix{{4.0}}, 0.0);
  EXPECT_NEAR(kl_gaussian(p, q), kl_gaussian(Gaussian1D{0, 1}, Gaussian1D{1, 4}), 1e-9);
}

TEST(Kl, MultivariateZeroForIdentical) {
  const auto p = MultivariateGaussian::from_moments(
      {1.0, -1.0}, linalg::Matrix{{2.0, 0.5}, {0.5, 1.0}}, 0.0);
  EXPECT_NEAR(kl_gaussian(p, p), 0.0, 1e-9);
}

TEST(KlMap, MomentMapsShapeAndValues) {
  std::vector<linalg::Matrix> stack = {linalg::Matrix{{1, 2}, {3, 4}},
                                       linalg::Matrix{{3, 2}, {3, 8}}};
  const MomentMaps m = moment_maps(stack);
  EXPECT_DOUBLE_EQ(m.mean(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.mean(1, 1), 6.0);
  EXPECT_NEAR(m.var(0, 0), 2.0, 1e-12);   // var of {1,3}
  EXPECT_NEAR(m.var(0, 1), 1e-12, 1e-13);  // clamped
}

TEST(KlMap, InconsistentShapesThrow) {
  std::vector<linalg::Matrix> stack = {linalg::Matrix(2, 2), linalg::Matrix(2, 3)};
  EXPECT_THROW(moment_maps(stack), std::invalid_argument);
}

TEST(KlMap, DetectsTheDifferingCell) {
  std::mt19937_64 rng(4);
  std::normal_distribution<double> noise(0.0, 0.1);
  std::vector<linalg::Matrix> a, b;
  for (int i = 0; i < 200; ++i) {
    linalg::Matrix ma(3, 3, 0.0), mb(3, 3, 0.0);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        ma(r, c) = noise(rng);
        mb(r, c) = noise(rng);
      }
    }
    mb(1, 2) += 1.0;  // the only real difference
    a.push_back(std::move(ma));
    b.push_back(std::move(mb));
  }
  const linalg::Matrix map = kl_map(a, b);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (r == 1 && c == 2) continue;
      EXPECT_LT(map(r, c), map(1, 2) / 10.0);
    }
  }
  EXPECT_GT(map(1, 2), 10.0);
}

TEST(Pca, RecoversDominantDirection) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> big(0.0, 5.0), small(0.0, 0.1);
  std::vector<linalg::Vector> rows;
  const double dir[2] = {std::cos(0.6), std::sin(0.6)};
  for (int i = 0; i < 3000; ++i) {
    const double t = big(rng), s = small(rng);
    rows.push_back({t * dir[0] - s * dir[1], t * dir[1] + s * dir[0]});
  }
  const Pca pca = Pca::fit(linalg::Matrix::from_rows(rows));
  ASSERT_EQ(pca.num_components(), 2u);
  // First axis parallel (up to sign) to dir.
  const double d = std::abs(pca.components()(0, 0) * dir[0] +
                            pca.components()(1, 0) * dir[1]);
  EXPECT_NEAR(d, 1.0, 1e-3);
  EXPECT_GT(pca.explained_variance_ratio(1), 0.99);
}

TEST(Pca, TransformInverseRoundTripFullRank) {
  std::mt19937_64 rng(6);
  std::normal_distribution<double> d(0, 1);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({d(rng), d(rng), d(rng)});
  const Pca pca = Pca::fit(linalg::Matrix::from_rows(rows));
  const linalg::Vector x{0.4, -1.0, 2.0};
  const linalg::Vector back = pca.inverse_transform(pca.transform(x));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
}

TEST(Pca, ComponentsAreDecorrelated) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> d(0, 1);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 500; ++i) {
    const double a = d(rng), b = d(rng);
    rows.push_back({a, 0.8 * a + 0.2 * b, b, a - b});
  }
  const linalg::Matrix x = linalg::Matrix::from_rows(rows);
  const Pca pca = Pca::fit(x);
  const linalg::Matrix z = pca.transform(x);
  const linalg::Matrix cov = linalg::row_covariance(z);
  for (std::size_t i = 0; i < cov.rows(); ++i) {
    for (std::size_t j = 0; j < cov.cols(); ++j) {
      if (i != j) {
        EXPECT_NEAR(cov(i, j), 0.0, 1e-8);
      }
    }
  }
}

TEST(Pca, VarianceRatioMonotonicAndCapped) {
  std::mt19937_64 rng(8);
  std::normal_distribution<double> d(0, 1);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({d(rng), 2 * d(rng), 3 * d(rng)});
  const Pca pca = Pca::fit(linalg::Matrix::from_rows(rows));
  double prev = 0.0;
  for (std::size_t k = 1; k <= 3; ++k) {
    const double r = pca.explained_variance_ratio(k);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
  EXPECT_EQ(pca.components_for_variance(1.0), 3u);
  EXPECT_GE(pca.components_for_variance(0.5), 1u);
}

TEST(Pca, MaxComponentsTruncates) {
  std::mt19937_64 rng(9);
  std::normal_distribution<double> d(0, 1);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({d(rng), d(rng), d(rng), d(rng)});
  const Pca pca = Pca::fit(linalg::Matrix::from_rows(rows), 2);
  EXPECT_EQ(pca.num_components(), 2u);
  EXPECT_EQ(pca.transform(linalg::Vector{1, 2, 3, 4}).size(), 2u);
}

TEST(Peaks, FindsInteriorAndBorderMaxima) {
  linalg::Matrix m(3, 4, 0.0);
  m(1, 1) = 5.0;  // interior peak
  m(0, 3) = 2.0;  // corner peak
  const auto peaks = local_maxima_2d(m);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(top_k(peaks, 1).front(), (GridPoint{1, 1, 5.0}));
}

TEST(Peaks, PlateauIsNotAPeak) {
  linalg::Matrix m(3, 3, 1.0);  // perfectly flat
  EXPECT_TRUE(local_maxima_2d(m).empty());
}

TEST(Peaks, ThresholdFilters) {
  linalg::Matrix m(3, 3, 0.0);
  m(1, 1) = 0.5;
  EXPECT_EQ(local_maxima_2d(m, 0.4).size(), 1u);
  EXPECT_TRUE(local_maxima_2d(m, 0.6).empty());
}

TEST(Peaks, TopAndBottomKOrdering) {
  std::vector<GridPoint> pts = {{0, 0, 1.0}, {0, 1, 3.0}, {1, 0, 2.0}};
  const auto top = top_k(pts, 2);
  EXPECT_DOUBLE_EQ(top[0].value, 3.0);
  EXPECT_DOUBLE_EQ(top[1].value, 2.0);
  const auto bottom = bottom_k(pts, 2);
  EXPECT_DOUBLE_EQ(bottom[0].value, 1.0);
  EXPECT_DOUBLE_EQ(bottom[1].value, 2.0);
}

TEST(ColumnScaler, TransformsToZeroMeanUnitStd) {
  std::mt19937_64 rng(10);
  std::normal_distribution<double> d(7.0, 3.0);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 400; ++i) rows.push_back({d(rng), 2.0 * d(rng)});
  const linalg::Matrix x = linalg::Matrix::from_rows(rows);
  const ColumnScaler s = ColumnScaler::fit(x);
  const linalg::Matrix z = s.transform(x);
  const linalg::Vector m = linalg::row_mean(z);
  EXPECT_NEAR(m[0], 0.0, 1e-10);
  EXPECT_NEAR(m[1], 0.0, 1e-10);
  const linalg::Matrix cov = linalg::row_covariance(z);
  EXPECT_NEAR(cov(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(cov(1, 1), 1.0, 1e-9);
}

TEST(ColumnScaler, InverseTransformRoundTrips) {
  const linalg::Matrix x{{1, 10}, {2, 20}, {3, 30}};
  const ColumnScaler s = ColumnScaler::fit(x);
  const linalg::Vector v{2.5, 15.0};
  const linalg::Vector back = s.inverse_transform(s.transform(v));
  EXPECT_NEAR(back[0], 2.5, 1e-10);
  EXPECT_NEAR(back[1], 15.0, 1e-10);
}

TEST(NormalizeVector, CancelsGainAndOffset) {
  const linalg::Vector x{1, 5, 2, 8, 3};
  linalg::Vector y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 4.0 * x[i] - 2.0;
  const linalg::Vector zx = normalize_vector(x);
  const linalg::Vector zy = normalize_vector(y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(zx[i], zy[i], 1e-10);
}

TEST(NormalizeRows, AppliesPerRow) {
  const linalg::Matrix x{{1, 2, 3}, {10, 20, 30}};
  const linalg::Matrix z = normalize_rows(x);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(z(0, c), z(1, c), 1e-10);
}

}  // namespace
}  // namespace sidis::stats
