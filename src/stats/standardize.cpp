#include "stats/standardize.hpp"

#include <cmath>
#include <stdexcept>

namespace sidis::stats {

ColumnScaler ColumnScaler::fit(const linalg::Matrix& samples, double eps) {
  if (samples.rows() < 1) throw std::invalid_argument("ColumnScaler::fit: empty");
  ColumnScaler s;
  s.mean_ = linalg::row_mean(samples);
  s.std_.assign(samples.cols(), 0.0);
  if (samples.rows() > 1) {
    for (std::size_t r = 0; r < samples.rows(); ++r) {
      auto row = samples.row(r);
      for (std::size_t c = 0; c < samples.cols(); ++c) {
        const double d = row[c] - s.mean_[c];
        s.std_[c] += d * d;
      }
    }
    for (double& v : s.std_) {
      v = std::sqrt(v / static_cast<double>(samples.rows() - 1));
    }
  }
  for (double& v : s.std_) v = std::max(v, eps);
  return s;
}

ColumnScaler ColumnScaler::from_parts(linalg::Vector mean, linalg::Vector stddev) {
  if (mean.size() != stddev.size()) {
    throw std::invalid_argument("ColumnScaler::from_parts: size mismatch");
  }
  ColumnScaler s;
  s.mean_ = std::move(mean);
  s.std_ = std::move(stddev);
  return s;
}

linalg::Vector ColumnScaler::transform(const linalg::Vector& x) const {
  if (x.size() != mean_.size()) throw std::invalid_argument("ColumnScaler: dim mismatch");
  linalg::Vector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = (x[i] - mean_[i]) / std_[i];
  return z;
}

linalg::Matrix ColumnScaler::transform(const linalg::Matrix& samples) const {
  linalg::Matrix out(samples.rows(), samples.cols());
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    const linalg::Vector z = transform(samples.row_vector(r));
    for (std::size_t c = 0; c < samples.cols(); ++c) out(r, c) = z[c];
  }
  return out;
}

}  // namespace sidis::stats
