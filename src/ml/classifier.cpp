#include "ml/classifier.hpp"

#include <limits>

namespace sidis::ml {

linalg::Vector Classifier::class_scores(const linalg::Vector&) const {
  return {};
}

const std::vector<int>& Classifier::score_labels() const {
  static const std::vector<int> kEmpty;
  return kEmpty;
}

linalg::Matrix Classifier::class_scores_batch(
    const linalg::Matrix& x_cols) const {
  linalg::Matrix out;
  linalg::Vector x(x_cols.rows());
  for (std::size_t l = 0; l < x_cols.cols(); ++l) {
    for (std::size_t i = 0; i < x_cols.rows(); ++i) x[i] = x_cols(i, l);
    const linalg::Vector s = class_scores(x);
    if (s.empty()) return {};  // hard-decision classifier: no score surface
    if (out.rows() == 0) out = linalg::Matrix(s.size(), x_cols.cols());
    for (std::size_t c = 0; c < s.size(); ++c) out(c, l) = s[c];
  }
  return out;
}

std::vector<ScoredPrediction> Classifier::predict_scored_batch(
    const linalg::Matrix& x_cols) const {
  std::vector<ScoredPrediction> out(x_cols.cols());
  linalg::Vector x(x_cols.rows());
  for (std::size_t l = 0; l < x_cols.cols(); ++l) {
    for (std::size_t i = 0; i < x_cols.rows(); ++i) x[i] = x_cols(i, l);
    out[l] = predict_scored(x);
  }
  return out;
}

ScoredPrediction scored_from_scores(const linalg::Vector& s,
                                    const std::vector<int>& labels) {
  ScoredPrediction out;
  std::size_t best = 0;
  double top = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < s.size(); ++c) {
    if (s[c] > top) {
      second = top;
      top = s[c];
      best = c;
    } else if (s[c] > second) {
      second = s[c];
    }
  }
  out.label = labels[best];
  out.top_score = top;
  out.margin = s.size() > 1 ? top - second
                            : std::numeric_limits<double>::infinity();
  return out;
}

double Classifier::accuracy(const Dataset& test) const {
  test.validate();
  if (test.size() == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t r = 0; r < test.size(); ++r) {
    if (predict(test.x.row_vector(r)) == test.y[r]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

}  // namespace sidis::ml
