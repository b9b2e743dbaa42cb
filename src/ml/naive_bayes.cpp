#include "ml/naive_bayes.hpp"

#include <cmath>
#include <stdexcept>

namespace sidis::ml {

GaussianNaiveBayes::GaussianNaiveBayes(double min_var) : min_var_(min_var) {}

void GaussianNaiveBayes::fit(const Dataset& train) {
  train.validate();
  labels_ = train.labels();
  if (labels_.size() < 2) {
    throw std::invalid_argument("GaussianNaiveBayes: need at least 2 classes");
  }
  feature_models_.clear();
  log_priors_.clear();
  for (int label : labels_) {
    const linalg::Matrix rows = train.rows_with_label(label);
    if (rows.rows() < 2) {
      throw std::invalid_argument("GaussianNaiveBayes: class needs >= 2 samples");
    }
    std::vector<stats::Gaussian1D> feats(train.dim());
    for (std::size_t f = 0; f < train.dim(); ++f) {
      const linalg::Vector col = rows.col_vector(f);
      feats[f] = stats::Gaussian1D::fit({col.data(), col.size()}, min_var_);
    }
    feature_models_.push_back(std::move(feats));
    log_priors_.push_back(std::log(static_cast<double>(rows.rows()) /
                                   static_cast<double>(train.size())));
  }
}

linalg::Vector GaussianNaiveBayes::scores(const linalg::Vector& x) const {
  if (feature_models_.empty()) throw std::runtime_error("GaussianNaiveBayes: not fitted");
  if (x.size() != feature_models_.front().size()) {
    throw std::invalid_argument("GaussianNaiveBayes: dim mismatch");
  }
  linalg::Vector s(labels_.size());
  for (std::size_t c = 0; c < labels_.size(); ++c) {
    double acc = log_priors_[c];
    for (std::size_t f = 0; f < x.size(); ++f) {
      acc += feature_models_[c][f].log_pdf(x[f]);
    }
    s[c] = acc;
  }
  return s;
}

ScoredPrediction GaussianNaiveBayes::predict_scored(const linalg::Vector& x) const {
  return scored_from_scores(scores(x), labels_);
}

}  // namespace sidis::ml
