// Gaussian naive Bayes (the paper's fitcnb): per-class, per-feature
// univariate Gaussians with an independence assumption.
#pragma once

#include <vector>

#include "ml/classifier.hpp"
#include "stats/gaussian.hpp"

namespace sidis::ml {

class GaussianNaiveBayes : public Classifier {
 public:
  /// `min_var` floors feature variances so constant features stay usable.
  explicit GaussianNaiveBayes(double min_var = 1e-9);

  void fit(const Dataset& train) override;
  ScoredPrediction predict_scored(const linalg::Vector& x) const override;
  std::string name() const override { return "NaiveBayes"; }

  linalg::Vector scores(const linalg::Vector& x) const;
  const std::vector<int>& labels() const { return labels_; }

 private:
  double min_var_;
  std::vector<int> labels_;
  std::vector<std::vector<stats::Gaussian1D>> feature_models_;  ///< [class][feature]
  std::vector<double> log_priors_;
};

}  // namespace sidis::ml
