#include "stats/kl.hpp"

#include <cmath>
#include <stdexcept>

namespace sidis::stats {

double kl_gaussian(const Gaussian1D& p, const Gaussian1D& q) {
  const double dm = p.mean - q.mean;
  return 0.5 * (std::log(q.var / p.var) + (p.var + dm * dm) / q.var - 1.0);
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

}  // namespace sidis::stats
