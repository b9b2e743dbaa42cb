// Template-transfer evaluation (Sec. 5.6 / Table 4): train the hierarchical
// disassembler on one device, classify field traces captured on another, and
// sweep a recalibration budget -- K traces per class from the deployment
// device spent on CSA re-normalization or a partial classifier refit.
//
// The evaluator owns the profiling-device model plus its reference window;
// every field capture classifies against *profiling* templates and the
// profiling reference, exactly like a deployed monitor that cannot re-profile
// in the field.  Both campaigns run in the same nominal session, so the
// measured gap isolates inter-device process variation (per-opcode corners,
// thermal drift, decoupling pole) from session effects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/profiler.hpp"
#include "sim/acquisition.hpp"

namespace sidis::core {

/// How a recalibration budget is spent.
enum class RecalMode {
  kRenorm,  ///< re-centre each level's column scaler (CSA re-normalization)
  kRefit,   ///< re-normalize, then retrain classifiers on profiling + budget
};

std::string to_string(RecalMode mode);

/// One recalibration event on a copy of `model`, which is left untouched:
/// the copy is cloned through the template serializer (QDA levels only; the
/// round trip a deployed monitor makes when it loads templates), then
/// recalibrate(recal, rescale), and for kRefit refit_classifiers() on
/// `*profiling` plus `recal` (each trace under its meta.class_idx).
/// An empty `recal` returns the plain clone.  `profiling` may be null for
/// kRenorm; throws std::invalid_argument for a kRefit without it.
HierarchicalDisassembler recalibrated_copy(const HierarchicalDisassembler& model,
                                           const sim::TraceSet& recal, RecalMode mode,
                                           bool rescale, const ProfilingData* profiling);

struct TransferConfig {
  /// Instruction classes in the evaluation matrix (>= 2 required).
  std::vector<std::size_t> classes;
  std::size_t train_traces_per_class = 90;
  std::size_t test_traces_per_class = 40;
  /// Profiling program files; field captures reuse the same files so the
  /// matrix isolates the device axis (the paper's Sec. 5.6 protocol swaps
  /// only the chip).
  int num_programs = 10;
  /// Recalibration budgets, in traces per class.  0 means "no adaptation"
  /// and always reproduces the baseline accuracy.
  std::vector<std::size_t> budgets = {0, 1, 5, 10, 25};
  /// Also replace per-column standard deviations during re-normalization
  /// (noisy below ~10 traces/class; see FeaturePipeline::renormalized).
  bool renorm_rescale = false;
  /// Model recipe.  Must use a QDA classifier: recalibrated variants are
  /// cloned through the template serializer, which persists QDA levels.
  HierarchicalConfig model;
  sim::LeakageConfig leakage;
  sim::ScopeConfig scope;
  std::uint64_t seed = 0x51D15;
  /// Worker threads for field-classification sweeps (0 = auto).  Capture
  /// streams are keyed per (device, class), so results are bit-identical
  /// for any worker count.
  std::size_t eval_workers = 0;
};

/// One accuracy-vs-budget sample of the Table 4 sweep.
struct BudgetPoint {
  std::size_t budget_per_class = 0;
  double renorm_accuracy = 0.0;
  double refit_accuracy = 0.0;
};

/// One (train device, test device) cell of the transfer matrix.
struct TransferCell {
  int train_device = 0;
  int test_device = 0;
  /// Accuracy with profiling templates applied verbatim (budget 0).
  double baseline_accuracy = 0.0;
  std::vector<BudgetPoint> curve;
};

/// Multi-device zero-shot protocol (the acquisition-sweep extension of the
/// Table-4 matrix): profile a *fleet* of devices {A..E}, optionally at
/// several acquisition configurations, pool the corpus into one template
/// set, and evaluate -- with no recalibration budget at all -- on a held-out
/// corner-sampled device F that no template ever saw.  The baselines are the
/// same budget spent on each single device alone; the pooled model's lift
/// over the *best* single baseline is the quantity the CI gates.
struct MultiDeviceConfig {
  /// Profiled fleet (DeviceModel::make ids).  Device 0 is nominal.
  std::vector<int> train_devices = {0, 1, 2, 3, 4};
  /// Held-out deployment device, never profiled.
  int holdout_device = 7;
  /// Draw the holdout from DeviceModel::make_corner (process-corner edges)
  /// rather than make()'s interior.  The train/holdout seed-spaces are
  /// disjoint either way.
  bool holdout_corner = true;
  /// Acquisition configurations pooled into the training corpus -- config
  /// augmentation: resolution/bandwidth variants teach the templates which
  /// spectral detail is device-furniture and which is signature.  All
  /// entries must share the leading entry's sample grid (one fitted pipeline
  /// serves one window length; rate sweeps train per-rate models instead);
  /// evaluate_multi_device throws otherwise.  Empty = nominal only.  Field
  /// captures on F always use the leading entry.
  std::vector<sim::AcquisitionConfig> configs;
  /// Traces per class per (device, config) cell of the pooled corpus.  The
  /// single-device baselines get the same *total* budget on their one
  /// device, so the comparison is budget-matched, not corpus-size-matched.
  std::size_t traces_per_class = 24;
  std::size_t test_traces_per_class = 24;
};

struct SingleDeviceBaseline {
  int train_device = 0;
  double accuracy = 0.0;  ///< zero-shot accuracy on the holdout device
};

struct MultiDeviceResult {
  int holdout_device = 0;
  std::size_t pooled_train_traces = 0;  ///< total windows behind the pooled fit
  double pooled_accuracy = 0.0;
  /// Reject-gate behaviour of the pooled model on F (gates calibrated on the
  /// pooled profiling corpus): fraction of field windows not kRejected, and
  /// the fraction of *misclassified* windows the gates flagged (!kOk).
  double pooled_accepted_fraction = 0.0;
  double pooled_flagged_miss_fraction = 0.0;
  std::vector<SingleDeviceBaseline> singles;
  double best_single_accuracy = 0.0;
  double pooled_lift = 0.0;  ///< pooled_accuracy - best_single_accuracy
};

/// Runs the protocol above; `base` supplies classes, model recipe, leakage /
/// scope bases, seed and eval workers (budgets are ignored -- the protocol
/// is zero-shot by definition).  Each model classifies field traces against
/// the reference its own profiling campaign recorded (the pooled model
/// against the fleet-averaged reference), mirroring TransferEvaluator's
/// deployed-monitor convention.  Throws std::invalid_argument on an empty
/// fleet, a holdout inside the fleet, mixed sample grids, or a non-QDA model.
MultiDeviceResult evaluate_multi_device(const MultiDeviceConfig& md,
                                        const TransferConfig& base);

class TransferEvaluator {
 public:
  /// Profiles `train_device` and trains the transferable model.  Throws
  /// std::invalid_argument on fewer than 2 classes or a non-QDA classifier.
  TransferEvaluator(int train_device, TransferConfig config);

  /// Field + recalibration corpora captured on one deployment device.  Both
  /// sets are interleaved round-robin by class, so any prefix of
  /// K * classes() recalibration traces is class-balanced.
  struct FieldData {
    sim::TraceSet field;       ///< scoring corpus (labels in meta.class_idx)
    sim::TraceSet recal_pool;  ///< max-budget recalibration pool
  };
  FieldData capture_field(int test_device) const;

  /// First `per_class` recalibration traces of each class from an
  /// interleaved pool (clamped to what the pool holds).
  sim::TraceSet budget_slice(const sim::TraceSet& pool, std::size_t per_class) const;

  /// Clones the trained model and spends `recal` on the chosen adaptation.
  /// An empty corpus returns an untouched clone.
  HierarchicalDisassembler recalibrated(const sim::TraceSet& recal,
                                        RecalMode mode) const;

  /// Fraction of `field` windows whose predicted class matches the ground
  /// truth; parallel over traces, worker-count invariant.
  double accuracy(const HierarchicalDisassembler& model,
                  const sim::TraceSet& field) const;

  /// Full budget sweep against one deployment device.
  TransferCell evaluate(int test_device) const;

  const HierarchicalDisassembler& model() const { return model_; }
  const TransferConfig& config() const { return config_; }
  int train_device() const { return train_device_; }
  /// Profiling reference window a deployed monitor would carry.
  const std::vector<double>& reference_window() const { return reference_; }

 private:
  TransferConfig config_;
  int train_device_ = 0;
  ProfilingData profiling_;  ///< retained: the refit arm augments this corpus
  HierarchicalDisassembler model_;
  std::vector<double> reference_;
};

}  // namespace sidis::core
