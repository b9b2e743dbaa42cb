#include "stats/gaussian.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sidis::stats {

Gaussian1D Gaussian1D::fit(std::span<const double> samples, double min_var) {
  if (samples.empty()) throw std::invalid_argument("Gaussian1D::fit: no samples");
  double m = 0.0;
  for (double v : samples) m += v;
  m /= static_cast<double>(samples.size());
  double var = 0.0;
  if (samples.size() > 1) {
    for (double v : samples) var += (v - m) * (v - m);
    var /= static_cast<double>(samples.size() - 1);
  }
  return {m, std::max(var, min_var)};
}

double Gaussian1D::log_pdf(double x) const {
  const double d = x - mean;
  return -0.5 * (std::log(2.0 * std::numbers::pi * var) + d * d / var);
}

MultivariateGaussian MultivariateGaussian::from_moments(linalg::Vector mean,
                                                        linalg::Matrix cov,
                                                        double ridge) {
  if (cov.rows() != cov.cols() || cov.rows() != mean.size()) {
    throw std::invalid_argument("MultivariateGaussian: shape mismatch");
  }
  MultivariateGaussian g;
  g.mean_ = std::move(mean);
  // Escalate the ridge until the covariance factors; rank deficiency is a
  // routine occurrence when #traces ~ #features.
  double lambda = ridge;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    g.cov_ = linalg::regularized(cov, lambda);
    g.chol_ = linalg::Cholesky::compute(g.cov_);
    if (g.chol_.valid) return g;
    lambda = lambda == 0.0 ? 1e-12 : lambda * 10.0;
  }
  throw std::runtime_error("MultivariateGaussian: covariance could not be regularized");
}

double MultivariateGaussian::log_pdf(const linalg::Vector& x) const {
  const double d2 = mahalanobis_squared(x);
  const double k = static_cast<double>(dim());
  return -0.5 * (k * std::log(2.0 * std::numbers::pi) + log_det() + d2);
}

double MultivariateGaussian::mahalanobis_squared(const linalg::Vector& x) const {
  if (x.size() != mean_.size()) {
    throw std::invalid_argument("MultivariateGaussian: dimension mismatch");
  }
  return chol_.mahalanobis_squared(linalg::sub(x, mean_));
}

void MultivariateGaussian::log_pdf_batch(const linalg::Matrix& x_cols,
                                         std::span<double> out,
                                         linalg::Matrix& centered,
                                         linalg::Matrix& solve) const {
  const std::size_t n = mean_.size();
  const std::size_t lanes = x_cols.cols();
  if (x_cols.rows() != n) {
    throw std::invalid_argument("MultivariateGaussian: dimension mismatch");
  }
  if (centered.rows() != n || centered.cols() != lanes) {
    centered = linalg::Matrix(n, lanes);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double m = mean_[i];
    const double* __restrict xrow = x_cols.row(i).data();
    double* __restrict crow = centered.row(i).data();
    for (std::size_t l = 0; l < lanes; ++l) crow[l] = xrow[l] - m;
  }
  chol_.mahalanobis_squared_batch(centered, out, solve);
  // Same normalizer expression as the scalar log_pdf; computing the constant
  // once per batch is safe because it was already a single subexpression
  // there (k*log(2pi) + log_det groups left-to-right before d2 joins).
  const double k = static_cast<double>(dim());
  const double norm = k * std::log(2.0 * std::numbers::pi) + log_det();
  for (std::size_t l = 0; l < lanes; ++l) out[l] = -0.5 * (norm + out[l]);
}

}  // namespace sidis::stats
