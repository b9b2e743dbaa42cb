// Common classifier interface.  The paper compares LDA, QDA, SVM (RBF) and
// naive Bayes (Sec. 5.2) plus kNN for the prior-work baselines; they all
// plug in behind this interface so every experiment harness can sweep them.
#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/dataset.hpp"

namespace sidis::ml {

/// A prediction with its decision-confidence diagnostics, the raw material
/// of the hierarchical disassembler's reject option.  Scores are in whatever
/// units the classifier decides with (log-likelihoods for the Gaussian
/// family, one-vs-one votes for SVM, neighbour votes for kNN); the reject
/// gates calibrate thresholds per classifier from clean traces, so only the
/// *ordering* within one fitted model matters.
struct ScoredPrediction {
  int label = 0;
  /// Decision score of the winning class (outlier gate: off-distribution
  /// inputs score low against every class).
  double top_score = 0.0;
  /// Winner-vs-runner-up score gap (ambiguity gate: a corrupted trace that
  /// still lands near a class boundary has a thin margin).
  double margin = 0.0;
};

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Learns from sample rows with integer labels.  Throws
  /// std::invalid_argument on inconsistent shapes or fewer than 2 classes.
  virtual void fit(const Dataset& train) = 0;

  /// Predicted label of one sample (must match training dim):
  /// predict_scored(x).label.
  int predict(const linalg::Vector& x) const { return predict_scored(x).label; }

  /// Prediction plus decision scores.
  virtual ScoredPrediction predict_scored(const linalg::Vector& x) const = 0;

  /// Scored predictions for a struct-of-arrays batch: `x_cols` is
  /// (dim x lanes) with *columns* as samples; out[l] must be bit-identical
  /// to predict_scored(column l).  The base implementation loops
  /// predict_scored per column; classifiers with a lane-vectorized scoring
  /// path (QDA) override it.
  virtual std::vector<ScoredPrediction> predict_scored_batch(
      const linalg::Matrix& x_cols) const;

  /// Full per-class decision-score surface of one sample, aligned with
  /// score_labels().  This is the raw material of probabilistic sequence
  /// decoding: the hierarchical disassembler log-softmaxes these into
  /// per-window posteriors.  Returns an empty vector when the classifier
  /// exposes only hard decisions (SVM one-vs-one votes, kNN neighbour
  /// counts have no calibratable score surface); callers fall back to a
  /// one-hot posterior at the predicted label.
  virtual linalg::Vector class_scores(const linalg::Vector& x) const;

  /// Labels aligned with class_scores(); empty when class_scores() is
  /// unsupported.
  virtual const std::vector<int>& score_labels() const;

  /// Batched score surface for a struct-of-arrays batch: `x_cols` is
  /// (dim x lanes) with columns as samples; returns (classes x lanes) where
  /// column l is bit-identical to class_scores(column l).  Empty matrix when
  /// class_scores() is unsupported.  The base implementation loops
  /// class_scores per column; QDA overrides with its blocked kernel.
  virtual linalg::Matrix class_scores_batch(const linalg::Matrix& x_cols) const;

  /// Display name ("QDA", "SVM-RBF", ...).
  virtual std::string name() const = 0;

  /// Fraction of correctly predicted rows.
  double accuracy(const Dataset& test) const;
};

/// Argmax + runner-up over a per-class score vector (aligned with `labels`)
/// -- the shared back-half of every predict_scored override.
ScoredPrediction scored_from_scores(const linalg::Vector& scores,
                                    const std::vector<int>& labels);

}  // namespace sidis::ml
