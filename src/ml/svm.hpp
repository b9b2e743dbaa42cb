// Support vector machine with RBF / linear kernel, trained by SMO.
//
// Stands in for the paper's LIBSVM usage (Sec. 5.2: "SVM classifier with RBF
// kernel ... best C and gamma selected by grid search with 3-fold
// cross-validation").  No bench reproduces that grid search: every bench runs
// one fixed C and gamma (SvmConfig's defaults or a value the bench sets).
// Multiclass classification uses one-vs-one voting, matching both LIBSVM's
// internal strategy and the paper's Sec. 2.1 complexity analysis.
#pragma once

#include <memory>
#include <vector>

#include "ml/classifier.hpp"

namespace sidis::ml {

enum class KernelType { kRbf, kLinear };

struct SvmConfig {
  KernelType kernel = KernelType::kRbf;
  double c = 10.0;        ///< penalty parameter C
  /// RBF gamma = 1/sigma^2.  <= 0 selects LIBSVM's default of 1/num_features
  /// at fit time -- without this scaling a fixed gamma starves the kernel as
  /// the PCA component count grows.
  double gamma = 0.0;
  double tol = 1e-3;      ///< KKT violation tolerance
  double eps = 1e-8;      ///< minimum alpha step
  int max_passes = 5;     ///< SMO passes without change before stopping
  std::size_t max_iter = 200000;  ///< hard iteration cap
};

/// Binary soft-margin SVM; labels are +1 / -1 internally.
class BinarySvm {
 public:
  explicit BinarySvm(SvmConfig config = {});

  /// `y[i]` must be +1 or -1.
  void fit(const linalg::Matrix& x, const std::vector<int>& y,
           std::uint64_t seed = 0x5337);

  /// Signed decision value; >= 0 classifies as +1.
  double decision(const linalg::Vector& x) const;
  int predict(const linalg::Vector& x) const { return decision(x) >= 0.0 ? 1 : -1; }

  std::size_t num_support_vectors() const { return support_.rows(); }
  const SvmConfig& config() const { return config_; }

 private:
  double kernel(const linalg::Vector& a, const linalg::Vector& b) const;

  SvmConfig config_;
  double effective_gamma_ = 1.0;
  linalg::Matrix support_;          ///< support vectors (rows)
  std::vector<double> coeffs_;      ///< alpha_i * y_i per support vector
  double bias_ = 0.0;
};

/// Multiclass SVM via one-vs-one voting over binary machines.
class Svm : public Classifier {
 public:
  explicit Svm(SvmConfig config = {});

  void fit(const Dataset& train) override;
  /// Scores are one-vs-one votes: the margin is the paper's majority-vote
  /// margin (Eq. (3) winner vs runner-up vote gap).
  ScoredPrediction predict_scored(const linalg::Vector& x) const override;
  std::string name() const override {
    return config_.kernel == KernelType::kRbf ? "SVM-RBF" : "SVM-linear";
  }

  const std::vector<int>& labels() const { return labels_; }
  std::size_t num_machines() const { return machines_.size(); }

 private:
  SvmConfig config_;
  std::vector<int> labels_;
  struct Pair {
    std::size_t a = 0;  ///< index into labels_ voted on +1
    std::size_t b = 0;  ///< index voted on -1
    BinarySvm machine;
  };
  std::vector<Pair> machines_;
};

}  // namespace sidis::ml
