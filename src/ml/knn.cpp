#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace sidis::ml {

Knn::Knn(std::size_t k) : k_(k) {
  if (k_ == 0) throw std::invalid_argument("Knn: k must be >= 1");
}

void Knn::fit(const Dataset& train) {
  train.validate();
  if (train.size() < k_) throw std::invalid_argument("Knn: fewer samples than k");
  train_ = train;
}

ScoredPrediction Knn::predict_scored(const linalg::Vector& x) const {
  if (train_.size() == 0) throw std::runtime_error("Knn: not fitted");
  if (x.size() != train_.dim()) throw std::invalid_argument("Knn: dim mismatch");

  // Partial selection of the k smallest distances.
  std::vector<std::pair<double, int>> dist;
  dist.reserve(train_.size());
  for (std::size_t r = 0; r < train_.size(); ++r) {
    dist.emplace_back(linalg::squared_distance(x, train_.x.row_vector(r)), train_.y[r]);
  }
  std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k_),
                    dist.end());

  std::map<int, std::size_t> votes;
  for (std::size_t i = 0; i < k_; ++i) ++votes[dist[i].second];
  // Majority vote; ties broken by the nearest member of the tied labels.
  std::size_t best_count = 0;
  std::size_t second_count = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {
      second_count = best_count;
      best_count = count;
    } else if (count > second_count) {
      second_count = count;
    }
  }
  ScoredPrediction out;
  out.label = dist.front().second;
  for (std::size_t i = 0; i < k_; ++i) {
    if (votes[dist[i].second] == best_count) {
      out.label = dist[i].second;
      // Off-distribution gate: distance to the winning label's nearest
      // neighbour, negated so that larger = more confident.
      out.top_score = -std::sqrt(dist[i].first);
      break;
    }
  }
  out.margin = static_cast<double>(best_count) - static_cast<double>(second_count);
  return out;
}

std::string Knn::name() const { return "kNN(k=" + std::to_string(k_) + ")"; }

}  // namespace sidis::ml
