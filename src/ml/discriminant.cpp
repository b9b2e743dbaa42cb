#include "ml/discriminant.hpp"

#include <cmath>
#include <stdexcept>

namespace sidis::ml {

namespace {

/// Per-class moments plus the pooled covariance in one pass.
struct ClassMoments {
  std::vector<int> labels;
  std::vector<linalg::Vector> means;
  std::vector<linalg::Matrix> covs;
  std::vector<double> log_priors;
  linalg::Matrix pooled;
};

ClassMoments compute_moments(const Dataset& train) {
  train.validate();
  ClassMoments m;
  m.labels = train.labels();
  if (m.labels.size() < 2) {
    throw std::invalid_argument("discriminant fit: need at least 2 classes");
  }
  const std::size_t p = train.dim();
  m.pooled = linalg::Matrix(p, p, 0.0);
  double pooled_weight = 0.0;
  for (int label : m.labels) {
    const linalg::Matrix rows = train.rows_with_label(label);
    if (rows.rows() < 2) {
      throw std::invalid_argument("discriminant fit: class needs >= 2 samples");
    }
    m.means.push_back(linalg::row_mean(rows));
    m.covs.push_back(linalg::row_covariance(rows));
    m.log_priors.push_back(std::log(static_cast<double>(rows.rows()) /
                                    static_cast<double>(train.size())));
    const double w = static_cast<double>(rows.rows() - 1);
    m.pooled += m.covs.back() * w;
    pooled_weight += w;
  }
  m.pooled *= 1.0 / pooled_weight;
  return m;
}

}  // namespace

Qda::Qda(DiscriminantConfig config) : config_(config) {}

void Qda::fit(const Dataset& train) {
  const ClassMoments m = compute_moments(train);
  labels_ = m.labels;
  log_priors_ = m.log_priors;
  models_.clear();
  for (std::size_t c = 0; c < labels_.size(); ++c) {
    linalg::Matrix cov = m.covs[c];
    if (config_.shrinkage > 0.0) {
      cov = cov * (1.0 - config_.shrinkage) + m.pooled * config_.shrinkage;
    }
    models_.push_back(
        stats::MultivariateGaussian::from_moments(m.means[c], cov, config_.ridge));
  }
}

Qda Qda::from_parts(std::vector<int> labels,
                    std::vector<stats::MultivariateGaussian> models,
                    std::vector<double> log_priors) {
  if (labels.size() != models.size() || labels.size() != log_priors.size() ||
      labels.size() < 2) {
    throw std::invalid_argument("Qda::from_parts: inconsistent parts");
  }
  Qda qda;
  qda.labels_ = std::move(labels);
  qda.models_ = std::move(models);
  qda.log_priors_ = std::move(log_priors);
  return qda;
}

linalg::Vector Qda::scores(const linalg::Vector& x) const {
  if (models_.empty()) throw std::runtime_error("Qda: not fitted");
  linalg::Vector s(models_.size());
  for (std::size_t c = 0; c < models_.size(); ++c) {
    s[c] = models_[c].log_pdf(x) + log_priors_[c];
  }
  return s;
}

linalg::Matrix Qda::scores_batch(const linalg::Matrix& x_cols) const {
  if (models_.empty()) throw std::runtime_error("Qda: not fitted");
  const std::size_t lanes = x_cols.cols();
  linalg::Matrix s(models_.size(), lanes);
  linalg::Matrix centered, solve;  // grow-once scratch shared across classes
  for (std::size_t c = 0; c < models_.size(); ++c) {
    double* __restrict srow = s.row(c).data();
    models_[c].log_pdf_batch(x_cols, {srow, lanes}, centered, solve);
    const double lp = log_priors_[c];
    for (std::size_t l = 0; l < lanes; ++l) srow[l] += lp;
  }
  return s;
}

std::vector<ScoredPrediction> Qda::predict_scored_batch(
    const linalg::Matrix& x_cols) const {
  const linalg::Matrix s = scores_batch(x_cols);
  std::vector<ScoredPrediction> out(x_cols.cols());
  linalg::Vector col(s.rows());
  for (std::size_t l = 0; l < x_cols.cols(); ++l) {
    for (std::size_t c = 0; c < s.rows(); ++c) col[c] = s(c, l);
    out[l] = scored_from_scores(col, labels_);
  }
  return out;
}

ScoredPrediction Qda::predict_scored(const linalg::Vector& x) const {
  return scored_from_scores(scores(x), labels_);
}

Lda::Lda(DiscriminantConfig config) : config_(config) {}

void Lda::fit(const Dataset& train) {
  const ClassMoments m = compute_moments(train);
  labels_ = m.labels;
  log_priors_ = m.log_priors;
  means_ = m.means;
  pooled_ = stats::MultivariateGaussian::from_moments(
      linalg::Vector(train.dim(), 0.0), m.pooled, config_.ridge);
}

linalg::Vector Lda::scores(const linalg::Vector& x) const {
  if (means_.empty()) throw std::runtime_error("Lda: not fitted");
  linalg::Vector s(means_.size());
  for (std::size_t c = 0; c < means_.size(); ++c) {
    // Shared covariance: the quadratic term is common, so the discriminant
    // reduces to -1/2 Mahalanobis distance to the class mean + prior.
    s[c] = -0.5 * pooled_.cholesky().mahalanobis_squared(linalg::sub(x, means_[c])) +
           log_priors_[c];
  }
  return s;
}

ScoredPrediction Lda::predict_scored(const linalg::Vector& x) const {
  return scored_from_scores(scores(x), labels_);
}

}  // namespace sidis::ml
