#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace sidis::ml {

BinarySvm::BinarySvm(SvmConfig config) : config_(config) {}

double BinarySvm::kernel(const linalg::Vector& a, const linalg::Vector& b) const {
  switch (config_.kernel) {
    case KernelType::kLinear:
      return linalg::dot(a, b);
    case KernelType::kRbf:
      return std::exp(-effective_gamma_ * linalg::squared_distance(a, b));
  }
  throw std::logic_error("BinarySvm: unknown kernel");
}

void BinarySvm::fit(const linalg::Matrix& x, const std::vector<int>& y,
                    std::uint64_t seed) {
  const std::size_t n = x.rows();
  if (n != y.size() || n < 2) throw std::invalid_argument("BinarySvm::fit: bad shapes");
  for (int v : y) {
    if (v != 1 && v != -1) throw std::invalid_argument("BinarySvm::fit: labels must be +/-1");
  }
  effective_gamma_ = config_.gamma > 0.0
                         ? config_.gamma
                         : 1.0 / static_cast<double>(std::max<std::size_t>(x.cols(), 1));

  // Precompute the kernel matrix (n is a few hundred to ~2k in this
  // pipeline, so the O(n^2) cache is the right trade).
  std::vector<double> k(n * n);
  std::vector<linalg::Vector> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = x.row_vector(i);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(rows[i], rows[j]);
      k[i * n + j] = v;
      k[j * n + i] = v;
    }
  }

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  const double c = config_.c;
  std::mt19937_64 rng(seed);

  const auto f = [&](std::size_t i) {
    double acc = b;
    for (std::size_t j = 0; j < n; ++j) {
      if (alpha[j] != 0.0) acc += alpha[j] * y[j] * k[j * n + i];
    }
    return acc;
  };

  // Simplified SMO (Platt): sweep for KKT violators, pair with a random
  // second index, solve the 2-variable subproblem analytically.
  int passes = 0;
  std::size_t iter = 0;
  while (passes < config_.max_passes && iter < config_.max_iter) {
    int changed = 0;
    for (std::size_t i = 0; i < n && iter < config_.max_iter; ++i, ++iter) {
      const double ei = f(i) - y[i];
      const bool violates = (y[i] * ei < -config_.tol && alpha[i] < c) ||
                            (y[i] * ei > config_.tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::uniform_int_distribution<std::size_t> pick(0, n - 2);
      std::size_t j = pick(rng);
      if (j >= i) ++j;
      const double ej = f(j) - y[j];

      const double ai_old = alpha[i];
      const double aj_old = alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;

      const double eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
      if (eta >= 0.0) continue;

      double aj = aj_old - y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < config_.eps) continue;
      const double ai = ai_old + y[i] * y[j] * (aj_old - aj);

      alpha[i] = ai;
      alpha[j] = aj;

      const double b1 = b - ei - y[i] * (ai - ai_old) * k[i * n + i] -
                        y[j] * (aj - aj_old) * k[i * n + j];
      const double b2 = b - ej - y[i] * (ai - ai_old) * k[i * n + j] -
                        y[j] * (aj - aj_old) * k[j * n + j];
      if (ai > 0.0 && ai < c) {
        b = b1;
      } else if (aj > 0.0 && aj < c) {
        b = b2;
      } else {
        b = 0.5 * (b1 + b2);
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  // Keep only the support vectors.
  std::vector<linalg::Vector> sv;
  coeffs_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 0.0) {
      sv.push_back(rows[i]);
      coeffs_.push_back(alpha[i] * y[i]);
    }
  }
  support_ = linalg::Matrix::from_rows(sv);
  bias_ = b;
}

double BinarySvm::decision(const linalg::Vector& x) const {
  if (coeffs_.empty()) throw std::runtime_error("BinarySvm: not fitted");
  double acc = bias_;
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    acc += coeffs_[i] * kernel(support_.row_vector(i), x);
  }
  return acc;
}

Svm::Svm(SvmConfig config) : config_(config) {}

void Svm::fit(const Dataset& train) {
  train.validate();
  labels_ = train.labels();
  if (labels_.size() < 2) throw std::invalid_argument("Svm::fit: need >= 2 classes");
  machines_.clear();
  for (std::size_t a = 0; a < labels_.size(); ++a) {
    for (std::size_t b2 = a + 1; b2 < labels_.size(); ++b2) {
      // Build the pairwise sub-dataset.
      std::vector<linalg::Vector> rows;
      std::vector<int> y;
      for (std::size_t r = 0; r < train.size(); ++r) {
        if (train.y[r] == labels_[a]) {
          rows.push_back(train.x.row_vector(r));
          y.push_back(1);
        } else if (train.y[r] == labels_[b2]) {
          rows.push_back(train.x.row_vector(r));
          y.push_back(-1);
        }
      }
      Pair p;
      p.a = a;
      p.b = b2;
      p.machine = BinarySvm(config_);
      p.machine.fit(linalg::Matrix::from_rows(rows), y,
                    0x5337 + a * 131 + b2);
      machines_.push_back(std::move(p));
    }
  }
}

ScoredPrediction Svm::predict_scored(const linalg::Vector& x) const {
  if (machines_.empty()) throw std::runtime_error("Svm: not fitted");
  linalg::Vector votes(labels_.size(), 0.0);
  for (const Pair& p : machines_) {
    votes[p.machine.decision(x) >= 0.0 ? p.a : p.b] += 1.0;
  }
  return scored_from_scores(votes, labels_);
}

}  // namespace sidis::ml
