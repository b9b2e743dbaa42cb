// Gaussian density estimation, univariate and multivariate.
//
// The entire template-attack side of the pipeline (KL feature maps, LDA/QDA,
// Bayesian baselines) is built on Gaussian class-conditional models, so this
// header is the statistical bedrock of the repository.
#pragma once

#include <span>

#include "linalg/decompositions.hpp"
#include "linalg/matrix.hpp"

namespace sidis::stats {

/// Univariate Gaussian N(mean, var).
struct Gaussian1D {
  double mean = 0.0;
  double var = 1.0;

  /// Maximum-likelihood fit (unbiased variance).  Variance is clamped to
  /// `min_var` so degenerate point masses stay usable in KL formulas.
  static Gaussian1D fit(std::span<const double> samples, double min_var = 1e-12);

  double log_pdf(double x) const;
};

/// Multivariate Gaussian with a cached Cholesky factorization of the
/// (regularized) covariance.
class MultivariateGaussian {
 public:
  MultivariateGaussian() = default;

  /// Builds from moments; the covariance receives `ridge` on its diagonal,
  /// escalated automatically (x10, up to 1000 steps) until the Cholesky
  /// succeeds.
  static MultivariateGaussian from_moments(linalg::Vector mean, linalg::Matrix cov,
                                           double ridge = 1e-9);

  std::size_t dim() const { return mean_.size(); }
  const linalg::Vector& mean() const { return mean_; }
  const linalg::Matrix& covariance() const { return cov_; }
  double log_det() const { return chol_.log_det(); }

  double log_pdf(const linalg::Vector& x) const;
  double mahalanobis_squared(const linalg::Vector& x) const;

  /// Batched log-density over a struct-of-arrays sample block: `x_cols` is
  /// (dim x lanes) with columns as samples; out[l] is bit-identical to
  /// log_pdf(column l).  The mean subtraction, triangular solve, and
  /// log-normalizer all sweep the whole batch lane-contiguous; `centered`
  /// and `solve` are grow-once caller scratch.
  void log_pdf_batch(const linalg::Matrix& x_cols, std::span<double> out,
                     linalg::Matrix& centered, linalg::Matrix& solve) const;

  const linalg::Cholesky& cholesky() const { return chol_; }

 private:
  linalg::Vector mean_;
  linalg::Matrix cov_;
  linalg::Cholesky chol_;
};

}  // namespace sidis::stats
