#include "stats/kl.hpp"

#include <cmath>
#include <stdexcept>

namespace sidis::stats {

double kl_gaussian(const Gaussian1D& p, const Gaussian1D& q) {
  const double dm = p.mean - q.mean;
  return 0.5 * (std::log(q.var / p.var) + (p.var + dm * dm) / q.var - 1.0);
}

double symmetric_kl_gaussian(const Gaussian1D& p, const Gaussian1D& q) {
  return kl_gaussian(p, q) + kl_gaussian(q, p);
}

double kl_gaussian(const MultivariateGaussian& p, const MultivariateGaussian& q) {
  if (p.dim() != q.dim()) throw std::invalid_argument("kl_gaussian: dim mismatch");
  const std::size_t k = p.dim();
  // tr(Sq^{-1} Sp): solve column by column against q's Cholesky.
  double trace = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    const linalg::Vector col = p.covariance().col_vector(c);
    const linalg::Vector x = q.cholesky().solve(col);
    trace += x[c];
  }
  const linalg::Vector dm = linalg::sub(q.mean(), p.mean());
  const double maha = q.cholesky().mahalanobis_squared(dm);
  return 0.5 * (trace + maha - static_cast<double>(k) + q.log_det() - p.log_det());
}

MomentMaps moment_maps(const std::vector<linalg::Matrix>& stack, double min_var) {
  if (stack.empty()) throw std::invalid_argument("moment_maps: empty stack");
  const std::size_t rows = stack.front().rows();
  const std::size_t cols = stack.front().cols();
  for (const auto& m : stack) {
    if (m.rows() != rows || m.cols() != cols) {
      throw std::invalid_argument("moment_maps: inconsistent scalogram shapes");
    }
  }
  MomentMaps out{linalg::Matrix(rows, cols, 0.0), linalg::Matrix(rows, cols, 0.0)};
  const double n = static_cast<double>(stack.size());
  for (const auto& m : stack) {
    for (std::size_t i = 0; i < rows * cols; ++i) {
      out.mean.data()[i] += m.data()[i];
    }
  }
  for (std::size_t i = 0; i < rows * cols; ++i) out.mean.data()[i] /= n;
  if (stack.size() > 1) {
    for (const auto& m : stack) {
      for (std::size_t i = 0; i < rows * cols; ++i) {
        const double d = m.data()[i] - out.mean.data()[i];
        out.var.data()[i] += d * d;
      }
    }
    for (std::size_t i = 0; i < rows * cols; ++i) {
      out.var.data()[i] /= (n - 1.0);
    }
  }
  for (std::size_t i = 0; i < rows * cols; ++i) {
    out.var.data()[i] = std::max(out.var.data()[i], min_var);
  }
  return out;
}

linalg::Matrix kl_map_from_moments(const MomentMaps& a, const MomentMaps& b) {
  if (a.mean.rows() != b.mean.rows() || a.mean.cols() != b.mean.cols()) {
    throw std::invalid_argument("kl_map_from_moments: shape mismatch");
  }
  linalg::Matrix out(a.mean.rows(), a.mean.cols(), 0.0);
  const std::size_t total = a.mean.rows() * a.mean.cols();
  for (std::size_t i = 0; i < total; ++i) {
    const Gaussian1D p{a.mean.data()[i], a.var.data()[i]};
    const Gaussian1D q{b.mean.data()[i], b.var.data()[i]};
    out.data()[i] = kl_gaussian(p, q);
  }
  return out;
}

linalg::Matrix kl_map(const std::vector<linalg::Matrix>& a,
                      const std::vector<linalg::Matrix>& b, double min_var) {
  return kl_map_from_moments(moment_maps(a, min_var), moment_maps(b, min_var));
}

}  // namespace sidis::stats
