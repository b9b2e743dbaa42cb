#include "stats/pca.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/eigen.hpp"

namespace sidis::stats {

Pca Pca::fit(const linalg::Matrix& samples, std::size_t max_components) {
  if (samples.rows() < 2) throw std::invalid_argument("Pca::fit: need >= 2 samples");
  Pca pca;
  pca.mean_ = linalg::row_mean(samples);
  const linalg::Matrix cov = linalg::row_covariance(samples);
  const linalg::EigenDecomposition eig = linalg::eigen_symmetric(cov);

  pca.total_variance_ = 0.0;
  for (double v : eig.values) pca.total_variance_ += std::max(v, 0.0);

  const std::size_t k = std::min<std::size_t>(max_components, eig.values.size());
  pca.eigenvalues_.assign(eig.values.begin(),
                          eig.values.begin() + static_cast<std::ptrdiff_t>(k));
  for (double& v : pca.eigenvalues_) v = std::max(v, 0.0);
  pca.components_ = linalg::Matrix(cov.rows(), k);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t r = 0; r < cov.rows(); ++r) {
      pca.components_(r, c) = eig.vectors(r, c);
    }
  }
  return pca;
}

linalg::Vector Pca::transform(const linalg::Vector& x, std::size_t k) const {
  if (x.size() != mean_.size()) throw std::invalid_argument("Pca::transform: dim mismatch");
  k = std::min(k, num_components());
  linalg::Vector z(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < x.size(); ++r) {
      acc += (x[r] - mean_[r]) * components_(r, c);
    }
    z[c] = acc;
  }
  return z;
}

linalg::Matrix Pca::transform(const linalg::Matrix& samples, std::size_t k) const {
  k = std::min(k, num_components());
  linalg::Matrix out(samples.rows(), k);
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    const linalg::Vector z = transform(samples.row_vector(r), k);
    for (std::size_t c = 0; c < k; ++c) out(r, c) = z[c];
  }
  return out;
}

Pca Pca::from_parts(linalg::Vector mean, linalg::Vector eigenvalues,
                    linalg::Matrix components, double total_variance) {
  if (components.cols() != eigenvalues.size() || components.rows() != mean.size()) {
    throw std::invalid_argument("Pca::from_parts: inconsistent shapes");
  }
  Pca pca;
  pca.mean_ = std::move(mean);
  pca.eigenvalues_ = std::move(eigenvalues);
  pca.components_ = std::move(components);
  pca.total_variance_ = total_variance;
  return pca;
}

}  // namespace sidis::stats
