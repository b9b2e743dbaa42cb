// The paper's primary contribution: a three-level hierarchical side-channel
// disassembler (Sec. 2.1).
//
//   Level 1 classifies a trace into one of the 8 Table-2 instruction groups;
//   Level 2 classifies it into a specific instruction class within the
//           predicted group;
//   Level 3 recovers the operand registers (Rd and/or Rr) when the class
//           uses them.
//
// Each level owns its own feature pipeline (CWT -> KL selection -> norm ->
// PCA) and classifier, trained from profiling traces of the training device.
// The hierarchy is what makes 112-class recognition tractable: a one-vs-one
// SVM over 112 flat classes needs 6216 binary machines, the hierarchy at
// most C(8,2) + C(24,2) = 304.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "avr/grouping.hpp"
#include "features/gather_plan.hpp"
#include "features/pipeline.hpp"
#include "ml/factory.hpp"
#include "sim/trace.hpp"

namespace sidis::core {

struct HierarchicalConfig {
  features::PipelineConfig pipeline;
  ml::ClassifierKind classifier = ml::ClassifierKind::kQda;
  ml::FactoryConfig factory;
  /// PCA components used per level (the paper saturates around 43-50).
  std::size_t group_components = 43;
  std::size_t instruction_components = 50;
  std::size_t register_components = 45;
};

/// Outcome of one classified window under the reject option.
enum class Verdict : std::uint8_t {
  kOk = 0,        ///< all gates passed; trust the recovered instruction
  kDegraded = 1,  ///< delivered, but the input looks off-distribution or an
                  ///< operand gate tripped -- treat operands with suspicion
  kRejected = 2,  ///< a class-level gate tripped; the recovery is a guess
};

std::string to_string(Verdict v);

/// Reject-option calibration knobs.  Thresholds are *calibrated*, not fixed:
/// calibrate_reject() classifies held-out clean traces through every level
/// and places each gate at a low quantile of the clean score distribution,
/// so a gate fires only on inputs that look unlike anything a healthy
/// acquisition chain produces.
struct RejectConfig {
  /// Fraction of clean traces allowed to fail the margin (ambiguity) gate.
  double margin_quantile = 0.005;
  /// Fraction of clean traces allowed to fail the top-score (outlier) gate.
  double score_quantile = 0.005;
  /// Extra slack widening the outlier floor below the quantile, in units of
  /// (median - quantile); absorbs calibration-set sampling error.
  double score_slack = 0.5;
};

/// Named reject-gate operating points -- deployment-grade presets over the
/// raw RejectConfig quantiles.  Calibrating at a stricter point places every
/// gate floor at a higher clean-score quantile, so the rejection sets are
/// *nested*: any window a looser point rejects, every stricter point rejects
/// too.  The selected point is persisted with the templates so a serving
/// tier can tell how a loaded model was gated.
enum class RejectOperatingPoint : std::uint8_t {
  /// Passive monitoring: gates fire only on gross outliers (~0.5% clean
  /// false-reject budget).
  kMonitoring = 0,
  /// Alerting deployments: ~2% clean false-reject budget, tighter outlier
  /// slack -- trades a little coverage for earlier fault visibility.
  kBalanced = 1,
  /// Forensic / high-assurance: ~5% clean false-reject budget, no outlier
  /// slack -- only windows deep inside the clean envelope are trusted.
  kStrict = 2,
  /// Gates were calibrated from an explicit RejectConfig.
  kCustom = 3,
};

std::string to_string(RejectOperatingPoint point);

/// The calibration quantiles a named operating point stands for.  Throws
/// std::invalid_argument for kCustom (it names the absence of a preset).
RejectConfig reject_config_for(RejectOperatingPoint point);

/// Profiling corpus: traces per instruction class (any subset of the 112),
/// plus optional per-register corpora for level 3.
struct ProfilingData {
  std::map<std::size_t, sim::TraceSet> classes;      ///< class_idx -> traces
  std::map<std::uint8_t, sim::TraceSet> rd_classes;  ///< Rd value -> traces
  std::map<std::uint8_t, sim::TraceSet> rr_classes;  ///< Rr value -> traces
};

/// Per-feature first and second moments of the training corpus in the
/// *monitor feature space* (the post-pipeline vectors of the model's monitor
/// level).  Persisted with the templates so a deployed drift
/// monitor can compare its streaming estimates against what the model was
/// trained on without access to the profiling corpus.
struct FeatureMoments {
  linalg::Vector mean;      ///< per-feature mean over the training corpus
  linalg::Vector variance;  ///< per-feature population variance
  std::uint64_t count = 0;  ///< training vectors the moments were pooled from

  bool empty() const { return mean.empty(); }
};

/// One recovered instruction.
struct Disassembly {
  int group = 0;
  std::size_t class_idx = 0;
  std::optional<std::uint8_t> rd;
  std::optional<std::uint8_t> rr;

  /// Reject-option outcome.  Always kOk until calibrate_reject() has armed
  /// the gates; after that, kRejected/kDegraded flag windows whose scores
  /// fall outside the clean calibration envelope.
  Verdict verdict = Verdict::kOk;
  /// Worst margin headroom over all gated levels: min(margin - floor).
  /// Negative exactly when a margin gate tripped; +inf when gates are off.
  double margin_headroom = std::numeric_limits<double>::infinity();
  /// Worst top-score headroom over all gated levels (outlier gate).
  double score_headroom = std::numeric_limits<double>::infinity();

  /// Normalized per-class log-posterior over the model's posterior_classes()
  /// support, composed across the hierarchy: log P(class | x) =
  /// log P(group | x) + log P(class | group, x), each factor a log-softmax
  /// over its level's score surface.  A group whose log P(group | x) lies
  /// more than HierarchicalDisassembler::kGroupReach below the best group's
  /// spreads that mass evenly over its classes instead, log P(group | x) -
  /// log |group|, so every group's marginal stays exact.  Empty on the plain
  /// classify() path -- only classify_scored()/classify_batch_scored() pay
  /// for it.  exp() of the entries sums to 1 up to rounding; this is the
  /// emission row sequence decoding consumes.
  linalg::Vector log_posterior;

  /// The window's monitor-space features (see monitor_features()), bit for
  /// bit.  Empty except on the classify_monitored() path, where the walk
  /// copies them from the monitor level's own projection.
  linalg::Vector monitor_features;

  bool accepted() const { return verdict != Verdict::kRejected; }

  /// Best-effort instruction reconstruction (unrecoverable operand fields --
  /// immediates, addresses -- stay zero; the paper's scope is opcode + regs).
  avr::Instruction to_instruction() const;
  /// Assembly-like rendering, e.g. "ADD r3, r17".
  std::string text() const;
};

class HierarchicalDisassembler {
 public:
  HierarchicalDisassembler() = default;

  /// Trains all levels present in `data`.  Level 2 is trained per group
  /// containing >= 2 profiled classes; level 3 per operand type with >= 2
  /// register corpora.  Throws std::invalid_argument on an empty corpus.
  static HierarchicalDisassembler train(const ProfilingData& data,
                                        HierarchicalConfig config = {});

  /// Full three-level classification of one trace window.
  ///
  /// Thread-safety contract: classify() and every other const member are
  /// safe to call concurrently from any number of threads on one shared,
  /// fully trained instance.  The whole inference path is audited to be
  /// free of hidden mutable state: FeaturePipeline::transform, the CWT
  /// filter bank, ColumnScaler/Pca, and every Classifier::predict
  /// implementation (QDA/LDA/NB/SVM/kNN) are pure const reads; the AVR
  /// grouping tables are `static const` (thread-safe one-time init,
  /// immutable afterwards).  Concurrent use is only undefined while a
  /// non-const operation (move assignment, loading over an instance) runs
  /// -- the usual C++ const-correctness rule, with no exceptions hiding in
  /// caches.  runtime::FleetFrontend relies on this to share one model
  /// across every shard's worker pool.
  Disassembly classify(const sim::Trace& trace) const;

  /// Batched classification -- bit-identical to calling classify() per
  /// window (labels, operands, verdicts, and headrooms match to the last
  /// bit), but lane-vectorized: windows bucket by trace length, and each
  /// multi-window bucket runs the whole hot path in struct-of-arrays form
  /// with the window dimension innermost, so every inner loop vectorizes
  /// across the batch while each window keeps the scalar accumulation order.
  /// The CWT is gathered once per bucket: the model's GatherPlan (built at
  /// train() and load()) holds the union of every level's feature points,
  /// the group level's points, which every window needs, are computed for
  /// all of them, and each level reads its rows from there (copied into its
  /// column-standardization pass) before the PCA projection and blocked QDA
  /// scoring (Qda::predict_scored_batch).  Level 2 re-batches by predicted
  /// group and level 3 by operand usage, so every classifier invocation
  /// stays a dense sub-batch; such a level gathers only its points outside
  /// the group level's, for its own windows.  A one-lane sub-batch runs the
  /// same SoA kernels, and classify() is this walk on a batch of one.
  /// Thread-safe like classify().
  std::vector<Disassembly> classify_batch(std::span<const sim::Trace> traces) const;

  /// classify() plus the full per-class log-posterior (see
  /// Disassembly::log_posterior).  Labels, operands, verdicts and headrooms
  /// are bit-identical to classify() -- the reject gates consume the exact
  /// same level scores; the posterior is composed from them, not the other
  /// way round.  Besides the predicted group's, a level-2 model runs only
  /// where its group is in reach (within kGroupReach of the best group), so
  /// on a confident group level this path costs about what classify() does.
  /// Levels whose classifier exposes no score surface (SVM votes, kNN)
  /// contribute a one-hot factor at their prediction.  Thread-safe like
  /// classify().
  Disassembly classify_scored(const sim::Trace& trace) const;

  /// Batched scored classification: classify_batch's lane-vectorized hot
  /// path with the score surfaces kept, so out[i] is bit-identical to
  /// classify_scored(traces[i]) including the posterior.  The shared gather
  /// covers level 1; each level-2 model gathers its own rows for its
  /// predicted-group and in-reach windows.  Thread-safe like classify().
  std::vector<Disassembly> classify_batch_scored(std::span<const sim::Trace> traces) const;

  /// How far, in nats, a group's log P(group | x) may lie below the best
  /// group's before the scored walk skips its level-2 model on that window
  /// (see Disassembly::log_posterior).  A skipped class then sits more than
  /// kGroupReach - log 24 below the window's best class, which is what lets
  /// runtime::SequenceDecoder prove that no decoded label moves.
  static constexpr double kGroupReach = 40.0;

  /// classify_batch(), or classify_batch_scored() when `scored`, that also
  /// keeps every window's Disassembly::monitor_features: the monitor level
  /// scores every window (it is the group level, or the only trained
  /// instruction level when the group level is trivial), so the walk copies
  /// each window's projected column instead of transforming the window a
  /// second time.  Everything else is bit-identical to the plain forms; the
  /// features are bit-identical to monitor_features(), and stay empty when
  /// every level is trivial.  Thread-safe like classify().
  std::vector<Disassembly> classify_monitored(std::span<const sim::Trace> traces,
                                              bool scored = false) const;

  /// Ascending class indices spanned by Disassembly::log_posterior -- the
  /// classes the model was profiled on.  Sequence decoders index their
  /// transition priors through this support.
  const std::vector<std::size_t>& posterior_classes() const {
    return posterior_classes_;
  }

  /// Level-wise entry points: one level alone on one window, at the level's
  /// configured component count.  The tests and perfbench's traced run hold
  /// each level's label in the walk against these.
  int classify_group(const sim::Trace& trace) const;
  std::size_t classify_within_group(int group, const sim::Trace& trace) const;
  std::uint8_t classify_rd(const sim::Trace& trace) const;
  std::uint8_t classify_rr(const sim::Trace& trace) const;

  /// Calibrates the reject gates on *clean* traces (ideally held out from
  /// training, though in-sample calibration is only mildly optimistic).
  /// Every level present in `clean` gets a margin floor and a top-score
  /// floor placed at low quantiles of the clean score distribution; levels
  /// absent from `clean` stay ungated.  After calibration, classify()
  /// populates Disassembly::verdict:
  ///
  ///   * group/instruction margin or score below floor  -> kRejected
  ///   * register-level gate below floor                -> kDegraded
  ///     (the opcode is still trusted; the operand is not)
  ///
  /// Each level's corpus is transformed like a training corpus, over the
  /// pipeline's PipelineConfig::workers threads; the floors, like every
  /// window's scores, do not depend on the count.  Idempotent;
  /// recalibrating replaces the thresholds.
  void calibrate_reject(const ProfilingData& clean, const RejectConfig& config = {});

  /// Named-operating-point overload: calibrates at the preset's quantiles
  /// and records the point, so it survives serialization and a serving
  /// tier can report how its models are gated.  The RejectConfig overload
  /// records kCustom.
  void calibrate_reject(const ProfilingData& clean, RejectOperatingPoint point);

  /// The operating point of the last calibrate_reject() call (kCustom for
  /// explicit RejectConfig calibrations; meaningless until
  /// reject_calibrated()).
  RejectOperatingPoint reject_operating_point() const { return reject_point_; }

  /// True once calibrate_reject() has armed at least the group gate.
  bool reject_calibrated() const { return group_level_.gate.active; }

  /// CSA re-normalization against a recalibration corpus captured on the
  /// *deployment* device (Sec. 5.6 recalibration budgets): re-centres every
  /// non-trivial level's column scaler on the corpus via
  /// FeaturePipeline::renormalized, leaving feature points, PCA and the
  /// trained classifiers untouched.  Labels are not consulted; a roughly
  /// class-balanced corpus of a few traces per class suffices.  Reject gates
  /// calibrated before recalibration remain armed but conservative --
  /// re-run calibrate_reject() with deployment-device traces to retighten
  /// them.  Throws like FeaturePipeline::renormalized.
  void recalibrate(const sim::TraceSet& recal, bool rescale = false);

  /// Partial refit (the second Sec. 5.6 recalibration arm): retrains every
  /// level's classifier on `data` through the existing -- possibly
  /// recalibrated -- pipelines, keeping feature selection and PCA fixed.
  /// Intended use: append a small deployment-device corpus to the profiling
  /// corpus and refit, so decision boundaries adapt without re-running
  /// selection.  Levels whose labels are absent from `data` (e.g. register
  /// corpora not re-captured) keep their trained classifiers.
  void refit_classifiers(const ProfilingData& data);

  bool has_register_level() const { return rd_level_ != nullptr || rr_level_ != nullptr; }
  const HierarchicalConfig& config() const { return config_; }

  /// Pooled training moments in the monitor feature space (see
  /// FeatureMoments).  Empty when every level is trivial (single profiled
  /// class -- nothing to monitor).
  const FeatureMoments& training_moments() const { return training_moments_; }
  bool has_training_moments() const { return !training_moments_.empty(); }

  /// Projects one trace into the monitor feature space: the post-pipeline
  /// vector of the monitor level.  That level is the group level when it is
  /// non-trivial, else the instruction level of the one profiled group --
  /// the group level degenerates to a label constant (no pipeline at all)
  /// whenever all profiled classes share one instruction group, so drift
  /// must then be watched where features still exist.  A full transform of
  /// the window; classify_monitored() keeps the same vector from its walk.
  /// Thread-safe like classify().  Throws std::runtime_error when every
  /// level is trivial.
  linalg::Vector monitor_features(const sim::Trace& trace) const;

  /// Template persistence (QDA levels only); see core/serialize.hpp.  load()
  /// reads what save() wrote, the model body of a current-version archive.
  void save(std::ostream& os) const;
  static HierarchicalDisassembler load(std::istream& is);

 public:
  /// Calibrated reject thresholds of one level (public for serialization).
  struct LevelGate {
    bool active = false;
    double margin_floor = -std::numeric_limits<double>::infinity();
    double score_floor = -std::numeric_limits<double>::infinity();
  };

 private:
  /// The multimodal fusion layer reads the trained levels directly (per-level
  /// pipelines for joint-feature heads, register levels for operand
  /// recovery) and runs the scored walk without the group skip; see
  /// core/fusion.hpp.
  friend class FusedDisassembler;

  struct Level {
    features::FeaturePipeline pipeline;
    std::unique_ptr<ml::Classifier> classifier;
    std::size_t components = SIZE_MAX;
    int only_label = 0;       ///< used when a level has a single class
    bool trivial = false;     ///< single-class level: no classifier needed
    LevelGate gate;           ///< reject thresholds (inactive until calibrated)
    std::size_t slot = 0;     ///< this level's slot in plan_
    /// Instruction levels: the positions in posterior_classes_ of the
    /// group's classes, over which a skipped group spreads its mass.
    std::vector<std::size_t> members;
  };

  static Level train_level_precomputed(
      const std::vector<const features::FeaturePipeline::ClassData*>& data,
      const features::LabeledTraces& input, const HierarchicalConfig& config,
      std::size_t components);
  static int predict_level(const Level& level, const sim::Trace& trace);
  /// Scores `level` on `lanes` (ascending positions in the bucket `gather`
  /// holds) and calls fold(i, prediction, log_posterior) for each lanes[i].
  /// The log-posterior is the log-softmax over score_labels() when `surface`
  /// is set and the classifier has a score surface, else empty.  When `kept`
  /// is non-null, (*kept)[i] holds lanes[i]'s projected features before the
  /// folds run.  Every lane count, one included, runs the SoA kernels.
  template <class Fold>
  static void score_level(const Level& level, features::GatherBatch& gather,
                          std::span<const std::size_t> lanes, bool surface,
                          std::vector<linalg::Vector>* kept, Fold&& fold);
  /// Numbers the levels' slots (the group level first: it is plan_'s shared
  /// slot), lists each instruction level's members and builds plan_ from the
  /// pipelines (the end of train() and load(); feature points and the
  /// posterior support never change after that).
  void build_plan();
  /// The one classify walk behind classify(), classify_scored(), their
  /// batch forms and classify_monitored(): out[i] is traces[i]'s recovery;
  /// `scored` composes the per-class log-posterior, skipping the level-2
  /// model of every non-predicted group more than `reach` nats behind the
  /// best group; `keep` fills monitor_features from the monitor level.
  /// FusedDisassembler passes reach = +inf for the exact posterior.
  void classify_walk(std::span<const sim::Trace> traces, std::span<Disassembly> out,
                     bool scored, bool keep = false,
                     double reach = kGroupReach) const;
  /// Rebuilds posterior_classes_ from the trained levels (load path; train()
  /// takes the support straight from the profiling corpus).
  void finalize_posterior_support();
  /// Arms `level`'s gate from its scores on the clean corpus `input`: one
  /// FeaturePipeline::transform of the corpus, then one
  /// Classifier::predict_scored_batch, as the walk scores each window.
  void calibrate_level(Level& level, const features::LabeledTraces& input,
                       const RejectConfig& config);
  /// The level whose pipeline defines the monitor feature space (nullptr
  /// when every level is trivial).
  const Level* monitor_level() const;

  HierarchicalConfig config_;
  Level group_level_;
  std::map<int, Level> instruction_levels_;  ///< group -> level-2 model
  std::unique_ptr<Level> rd_level_;
  std::unique_ptr<Level> rr_level_;
  FeatureMoments training_moments_;
  RejectOperatingPoint reject_point_ = RejectOperatingPoint::kMonitoring;
  std::vector<std::size_t> posterior_classes_;  ///< ascending, see accessor
  /// The union of every level's feature points; levels index it by slot,
  /// so it survives a move of the model.
  features::GatherPlan plan_;
};

}  // namespace sidis::core
