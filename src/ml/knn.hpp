// k-nearest-neighbours classifier.  Used by the Msgna et al. baseline
// (PCA + 1-NN, Table 1) and available for sweeps.
#pragma once

#include <vector>

#include "ml/classifier.hpp"

namespace sidis::ml {

class Knn : public Classifier {
 public:
  explicit Knn(std::size_t k = 1);

  void fit(const Dataset& train) override;
  /// Margin is the neighbour-vote gap; top_score is the negated distance to
  /// the winning label's nearest neighbour (an off-distribution gate).
  ScoredPrediction predict_scored(const linalg::Vector& x) const override;
  std::string name() const override;

  std::size_t k() const { return k_; }

 private:
  std::size_t k_;
  Dataset train_;
};

}  // namespace sidis::ml
