#include "core/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "avr/isa.hpp"
#include "core/sequence.hpp"

namespace sidis::core {

namespace {

/// A level with one distinct label needs no classifier -- e.g. the group
/// level when every profiled class lives in the same group.
bool single_label(const std::vector<int>& labels) {
  return std::all_of(labels.begin(), labels.end(),
                     [&](int l) { return l == labels.front(); });
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Low quantile of an unsorted sample (sorts a copy; calibration-time only).
double low_quantile(std::vector<double> v, double q) {
  if (v.empty()) return -kInf;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Folds one level's calibrated gate into the window's verdict and
/// headrooms.  `fatal` gates (group/instruction) reject the window; register
/// gates only degrade it -- the opcode is still trusted, the operand is not.
void fold_gate(Disassembly& out, const HierarchicalDisassembler::LevelGate& gate,
               const ml::ScoredPrediction& p, bool fatal) {
  if (!gate.active) return;
  const double margin_headroom = p.margin - gate.margin_floor;
  const double score_headroom = p.top_score - gate.score_floor;
  out.margin_headroom = std::min(out.margin_headroom, margin_headroom);
  out.score_headroom = std::min(out.score_headroom, score_headroom);
  if (margin_headroom < 0.0 || score_headroom < 0.0) {
    out.verdict = fatal ? Verdict::kRejected : std::max(out.verdict, Verdict::kDegraded);
  }
}

/// A class corpus as level-1/level-2 inputs: every non-empty class under its
/// own label and under its group's, plus per group its classes.
struct ClassInputs {
  features::LabeledTraces by_class;
  features::LabeledTraces by_group;
  std::map<int, features::LabeledTraces> per_group;
};

ClassInputs class_inputs(const std::map<std::size_t, sim::TraceSet>& classes) {
  ClassInputs in;
  for (const auto& [class_idx, traces] : classes) {
    if (traces.empty()) continue;
    const int group = avr::group_of_class(class_idx);
    in.by_class.labels.push_back(static_cast<int>(class_idx));
    in.by_class.sets.push_back(&traces);
    in.by_group.labels.push_back(group);
    in.by_group.sets.push_back(&traces);
    in.per_group[group].labels.push_back(static_cast<int>(class_idx));
    in.per_group[group].sets.push_back(&traces);
  }
  return in;
}

/// A register corpus (register value -> traces) as one level-3 input.
features::LabeledTraces register_input(
    const std::map<std::uint8_t, sim::TraceSet>& sets) {
  features::LabeledTraces input;
  for (const auto& [reg, traces] : sets) {
    input.labels.push_back(static_cast<int>(reg));
    input.sets.push_back(&traces);
  }
  return input;
}

std::vector<const features::FeaturePipeline::ClassData*> pointers(
    const std::vector<features::FeaturePipeline::ClassData>& data) {
  std::vector<const features::FeaturePipeline::ClassData*> out;
  for (const auto& cd : data) out.push_back(&cd);
  return out;
}

}  // namespace

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kDegraded: return "degraded";
    case Verdict::kRejected: return "rejected";
  }
  return "unknown";
}

std::string to_string(RejectOperatingPoint point) {
  switch (point) {
    case RejectOperatingPoint::kMonitoring: return "monitoring";
    case RejectOperatingPoint::kBalanced: return "balanced";
    case RejectOperatingPoint::kStrict: return "strict";
    case RejectOperatingPoint::kCustom: return "custom";
  }
  return "unknown";
}

RejectConfig reject_config_for(RejectOperatingPoint point) {
  // Quantiles are monotone across the presets (and balanced/strict shrink
  // the slack), which makes the gate floors monotone and the rejection sets
  // nested -- see the enum comment; the core_test battery pins this.
  switch (point) {
    case RejectOperatingPoint::kMonitoring: return RejectConfig{0.005, 0.005, 0.5};
    case RejectOperatingPoint::kBalanced: return RejectConfig{0.02, 0.02, 0.25};
    case RejectOperatingPoint::kStrict: return RejectConfig{0.05, 0.05, 0.0};
    case RejectOperatingPoint::kCustom: break;
  }
  throw std::invalid_argument("reject_config_for: kCustom names no preset");
}

avr::Instruction Disassembly::to_instruction() const {
  const avr::ClassSpec& spec = avr::instruction_classes().at(class_idx);
  avr::Instruction in;
  in.mnemonic = spec.mnemonic;
  in.mode = spec.mode;
  if (rd) in.rd = *rd;
  if (rr) in.rr = *rr;
  return in;
}

std::string Disassembly::text() const { return avr::to_string(to_instruction()); }

HierarchicalDisassembler::Level HierarchicalDisassembler::train_level_precomputed(
    const std::vector<const features::FeaturePipeline::ClassData*>& data,
    const features::LabeledTraces& input, const HierarchicalConfig& config,
    std::size_t components) {
  Level level;
  level.components = components;
  if (single_label(input.labels)) {
    level.trivial = true;
    level.only_label = input.labels.front();
    return level;
  }
  level.pipeline = features::FeaturePipeline::fit(data, config.pipeline);
  const ml::Dataset train = level.pipeline.transform(input, components);
  level.classifier = ml::make_classifier(config.classifier, config.factory);
  level.classifier->fit(train);
  return level;
}

int HierarchicalDisassembler::predict_level(const Level& level, const sim::Trace& trace) {
  if (level.trivial) return level.only_label;
  if (level.classifier == nullptr) throw std::runtime_error("level not trained");
  return level.classifier->predict(level.pipeline.transform(trace, level.components));
}

void HierarchicalDisassembler::calibrate_reject(const ProfilingData& clean,
                                                RejectOperatingPoint point) {
  calibrate_reject(clean, reject_config_for(point));
  reject_point_ = point;
}

void HierarchicalDisassembler::calibrate_reject(const ProfilingData& clean,
                                                const RejectConfig& config) {
  reject_point_ = RejectOperatingPoint::kCustom;
  const ClassInputs in = class_inputs(clean.classes);
  if (!in.by_group.sets.empty()) calibrate_level(group_level_, in.by_group, config);
  for (auto& [group, level] : instruction_levels_) {
    const auto it = in.per_group.find(group);
    if (it != in.per_group.end()) calibrate_level(level, it->second, config);
  }
  if (rd_level_ != nullptr && !clean.rd_classes.empty()) {
    calibrate_level(*rd_level_, register_input(clean.rd_classes), config);
  }
  if (rr_level_ != nullptr && !clean.rr_classes.empty()) {
    calibrate_level(*rr_level_, register_input(clean.rr_classes), config);
  }
}

void HierarchicalDisassembler::recalibrate(const sim::TraceSet& recal, bool rescale) {
  const auto renorm = [&](Level& level) {
    if (level.trivial) return;
    level.pipeline = level.pipeline.renormalized(recal, rescale);
  };
  renorm(group_level_);
  for (auto& [group, level] : instruction_levels_) {
    (void)group;
    renorm(level);
  }
  if (rd_level_) renorm(*rd_level_);
  if (rr_level_) renorm(*rr_level_);
}

void HierarchicalDisassembler::refit_classifiers(const ProfilingData& data) {
  const auto refit = [&](Level& level, const features::LabeledTraces& input) {
    if (level.trivial || level.classifier == nullptr) return;
    // Can't retrain a decision boundary on fewer than two labels.
    if (input.sets.size() < 2 || single_label(input.labels)) return;
    const ml::Dataset train = level.pipeline.transform(input, level.components);
    auto classifier = ml::make_classifier(config_.classifier, config_.factory);
    classifier->fit(train);
    level.classifier = std::move(classifier);
  };

  const ClassInputs in = class_inputs(data.classes);
  refit(group_level_, in.by_group);
  for (auto& [group, level] : instruction_levels_) {
    const auto it = in.per_group.find(group);
    if (it != in.per_group.end()) refit(level, it->second);
  }
  if (rd_level_ != nullptr) refit(*rd_level_, register_input(data.rd_classes));
  if (rr_level_ != nullptr) refit(*rr_level_, register_input(data.rr_classes));
}

HierarchicalDisassembler HierarchicalDisassembler::train(const ProfilingData& data,
                                                         HierarchicalConfig config) {
  if (data.classes.empty()) {
    throw std::invalid_argument("HierarchicalDisassembler::train: no profiled classes");
  }
  HierarchicalDisassembler d;
  d.config_ = config;

  // Posterior support: exactly the profiled classes (data.classes is an
  // ordered map, so the support comes out ascending).
  for (const auto& [class_idx, traces] : data.classes) {
    if (traces.empty()) {
      throw std::invalid_argument("HierarchicalDisassembler::train: empty class corpus");
    }
    d.posterior_classes_.push_back(class_idx);
  }

  // Levels 1 and 2 see the same traces (level 1 with group labels, level 2
  // with class labels), so the expensive per-class CWT moment/mask pass is
  // computed once and shared.
  const ClassInputs in = class_inputs(data.classes);
  const std::vector<features::FeaturePipeline::ClassData> precomputed =
      features::FeaturePipeline::precompute(in.by_class, config.pipeline);
  std::map<std::size_t, const features::FeaturePipeline::ClassData*> by_class;
  for (const auto& cd : precomputed) {
    by_class[static_cast<std::size_t>(cd.label)] = &cd;
  }

  // Level 1: group classification over all profiled classes.  The pipeline
  // fit only consumes moments/masks/traces, so class-level precompute data
  // serves directly; the classifier pools samples by the group labels.
  d.group_level_ = train_level_precomputed(pointers(precomputed), in.by_group, config,
                                           config.group_components);

  // Level 2: one model per group with at least 2 profiled classes.
  for (const auto& [group, input] : in.per_group) {
    std::vector<const features::FeaturePipeline::ClassData*> subset;
    for (int label : input.labels) {
      subset.push_back(by_class.at(static_cast<std::size_t>(label)));
    }
    d.instruction_levels_[group] = train_level_precomputed(
        subset, input, config, config.instruction_components);
  }

  // Level 3: register recovery.
  const auto train_registers = [&](const std::map<std::uint8_t, sim::TraceSet>& sets)
      -> std::unique_ptr<Level> {
    if (sets.size() < 2) return nullptr;
    const features::LabeledTraces input = register_input(sets);
    const std::vector<features::FeaturePipeline::ClassData> registers =
        features::FeaturePipeline::precompute(input, config.pipeline);
    return std::make_unique<Level>(train_level_precomputed(
        pointers(registers), input, config, config.register_components));
  };
  d.rd_level_ = train_registers(data.rd_classes);
  d.rr_level_ = train_registers(data.rr_classes);

  // Training moments for drift monitoring: pool every training trace through
  // the monitor level's pipeline and keep per-feature mean/variance.  The
  // batched transform is worker-count-invariant, and the row-order reduction
  // below is sequential, so the moments are bit-identical for any
  // PipelineConfig::workers setting.
  if (const Level* watch = d.monitor_level(); watch != nullptr) {
    const ml::Dataset projected =
        watch->pipeline.transform(in.by_class, watch->components);
    if (projected.size() > 0) {
      const std::size_t dim = projected.dim();
      const double n = static_cast<double>(projected.size());
      linalg::Vector mean(dim, 0.0);
      linalg::Vector sq(dim, 0.0);
      for (std::size_t r = 0; r < projected.size(); ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
          mean[c] += projected.x(r, c);
          sq[c] += projected.x(r, c) * projected.x(r, c);
        }
      }
      linalg::Vector variance(dim, 0.0);
      for (std::size_t c = 0; c < dim; ++c) {
        mean[c] /= n;
        variance[c] = std::max(0.0, sq[c] / n - mean[c] * mean[c]);
      }
      d.training_moments_ = {std::move(mean), std::move(variance),
                             static_cast<std::uint64_t>(projected.size())};
    }
  }
  d.build_plan();
  return d;
}

const HierarchicalDisassembler::Level* HierarchicalDisassembler::monitor_level() const {
  if (!group_level_.trivial) return &group_level_;
  for (const auto& [group, level] : instruction_levels_) {
    (void)group;
    if (!level.trivial) return &level;
  }
  return nullptr;
}

linalg::Vector HierarchicalDisassembler::monitor_features(const sim::Trace& trace) const {
  const Level* level = monitor_level();
  if (level == nullptr) {
    throw std::runtime_error("monitor_features: every level is trivial");
  }
  return level->pipeline.transform(trace, level->components);
}

int HierarchicalDisassembler::classify_group(const sim::Trace& trace) const {
  return predict_level(group_level_, trace);
}

std::size_t HierarchicalDisassembler::classify_within_group(int group,
                                                            const sim::Trace& trace) const {
  const auto it = instruction_levels_.find(group);
  if (it == instruction_levels_.end()) {
    throw std::invalid_argument("classify_within_group: group not trained");
  }
  return static_cast<std::size_t>(predict_level(it->second, trace));
}

std::uint8_t HierarchicalDisassembler::classify_rd(const sim::Trace& trace) const {
  if (rd_level_ == nullptr) throw std::runtime_error("Rd level not trained");
  return static_cast<std::uint8_t>(predict_level(*rd_level_, trace));
}

std::uint8_t HierarchicalDisassembler::classify_rr(const sim::Trace& trace) const {
  if (rr_level_ == nullptr) throw std::runtime_error("Rr level not trained");
  return static_cast<std::uint8_t>(predict_level(*rr_level_, trace));
}

void HierarchicalDisassembler::finalize_posterior_support() {
  posterior_classes_.clear();
  for (const auto& [group, level] : instruction_levels_) {
    (void)group;
    if (level.trivial) {
      posterior_classes_.push_back(static_cast<std::size_t>(level.only_label));
      continue;
    }
    if (level.classifier == nullptr) continue;
    for (const int label : level.classifier->score_labels()) {
      posterior_classes_.push_back(static_cast<std::size_t>(label));
    }
  }
  std::sort(posterior_classes_.begin(), posterior_classes_.end());
  posterior_classes_.erase(
      std::unique(posterior_classes_.begin(), posterior_classes_.end()),
      posterior_classes_.end());
}

void HierarchicalDisassembler::build_plan() {
  // Slot 0, the plan's shared slot, is the group level: it scores every
  // window of a bucket.
  std::vector<const features::FeaturePipeline*> pipelines;
  const auto add = [&](Level& level) {
    level.slot = pipelines.size();
    pipelines.push_back(level.trivial ? nullptr : &level.pipeline);
  };
  add(group_level_);
  for (auto& [group, level] : instruction_levels_) {
    add(level);
    level.members.clear();
    for (std::size_t i = 0; i < posterior_classes_.size(); ++i) {
      if (avr::group_of_class(posterior_classes_[i]) == group) level.members.push_back(i);
    }
  }
  if (rd_level_) add(*rd_level_);
  if (rr_level_) add(*rr_level_);
  plan_ = features::GatherPlan(pipelines);
}

template <class Fold>
void HierarchicalDisassembler::score_level(const Level& level,
                                           features::GatherBatch& gather,
                                           std::span<const std::size_t> lanes,
                                           bool surface, std::vector<linalg::Vector>* kept,
                                           Fold&& fold) {
  const linalg::Vector none;
  if (level.trivial) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      fold(i, ml::ScoredPrediction{level.only_label, kInf, kInf}, none);
    }
    return;
  }
  if (lanes.empty()) return;
  if (level.classifier == nullptr) throw std::runtime_error("level not trained");
  const ml::Classifier& classifier = *level.classifier;
  const std::vector<int>& labels = classifier.score_labels();
  // Hard-decision classifiers (SVM votes, kNN) have no score surface; the
  // walk folds a one-hot factor at their prediction instead.
  surface = surface && !labels.empty();

  // Every sub-batch, one lane included, runs the SoA kernels: a one-lane
  // tile is one plain double per step (see lanes.hpp), so a batch of one
  // costs what the scalar kernels do, and each lane keeps the scalar
  // per-window accumulation order, so no bit depends on the lane count.
  const linalg::Matrix x =
      gather.features(level.slot, level.pipeline, lanes, level.components);
  if (kept != nullptr) {
    kept->assign(lanes.size(), linalg::Vector(x.rows()));
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      for (std::size_t c = 0; c < x.rows(); ++c) (*kept)[i][c] = x(c, i);
    }
  }
  if (!surface) {
    const std::vector<ml::ScoredPrediction> p = classifier.predict_scored_batch(x);
    for (std::size_t i = 0; i < lanes.size(); ++i) fold(i, p[i], none);
    return;
  }
  const linalg::Matrix s = classifier.class_scores_batch(x);
  linalg::Vector col(s.rows());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    for (std::size_t c = 0; c < s.rows(); ++c) col[c] = s(c, i);
    fold(i, ml::scored_from_scores(col, labels), log_softmax(col));
  }
}

void HierarchicalDisassembler::calibrate_level(Level& level,
                                               const features::LabeledTraces& input,
                                               const RejectConfig& config) {
  if (level.trivial) return;
  // The clean corpus takes the path training and refit_classifiers take;
  // each window's features and scores are bit-identical to the walk's, and
  // the gates read only the sorted margins and scores, so the order the
  // windows are scored in does not matter.
  const ml::Dataset clean = level.pipeline.transform(input, level.components);
  if (clean.size() == 0) return;
  if (level.classifier == nullptr) throw std::runtime_error("level not trained");
  std::vector<double> margins;
  std::vector<double> scores;
  for (const ml::ScoredPrediction& p :
       level.classifier->predict_scored_batch(clean.x.transposed())) {
    margins.push_back(p.margin);
    scores.push_back(p.top_score);
  }
  level.gate.margin_floor = low_quantile(margins, config.margin_quantile);
  const double q = low_quantile(scores, config.score_quantile);
  const double median = low_quantile(scores, 0.5);
  // Widen the outlier floor below the clean quantile; the spread to the
  // median scales the slack to the level's own score dispersion.
  level.gate.score_floor = q - config.score_slack * std::max(0.0, median - q);
  level.gate.active = true;
}

void HierarchicalDisassembler::classify_walk(std::span<const sim::Trace> traces,
                                             std::span<Disassembly> out,
                                             bool scored, bool keep,
                                             double reach) const {
  // The SoA kernels want equal-length lanes, so windows bucket by trace
  // length first (one CWT/FFT geometry per bucket).  Within a bucket, level 1
  // scores every lane, level 2 the lanes of each predicted group (scored,
  // also every lane whose group is within `reach` of its best), level 3 the
  // lanes whose class uses the operand.
  //
  // Every classify() call is a one-window walk, so the index bookkeeping is
  // one allocation: the length-sorted window order, then the identity lane
  // list each bucket's level 1 scores.
  std::vector<std::size_t> index(2 * traces.size());
  const std::span<std::size_t> order(index.data(), traces.size());
  const std::span<std::size_t> all(index.data() + traces.size(), traces.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return traces[a].samples.size() < traces[b].samples.size();
  });
  std::vector<std::size_t> subset;
  features::GatherBatch gather;  // grow-once scratch, shared by buckets
  std::vector<std::vector<double>> normalized;
  std::vector<const std::vector<double>*> prepared;
  if (!traces.empty() && plan_.slots() == 0) {
    throw std::runtime_error("level not trained");
  }
  // Scored walk: log P(group | x) of every lane under every trained group
  // (lane-major, instruction_levels_ order), and each lane's best.
  std::vector<double> group_lp;
  std::vector<double> best_lp;
  const std::size_t groups = instruction_levels_.size();
  // classify_monitored(): the monitor level's projected features, per lane
  // of the level's sub-batch, moved into each lane's result by its fold.
  const Level* const watch = keep ? monitor_level() : nullptr;
  std::vector<linalg::Vector> kept;
  const auto keep_for = [&](const Level& level) {
    return &level == watch ? &kept : nullptr;
  };

  const auto posterior_index = [&](int label) {
    const auto cls = static_cast<std::size_t>(label);
    const auto it =
        std::lower_bound(posterior_classes_.begin(), posterior_classes_.end(), cls);
    if (it == posterior_classes_.end() || *it != cls) {
      throw std::logic_error("classify_scored: class outside posterior support");
    }
    return static_cast<std::size_t>(it - posterior_classes_.begin());
  };

  for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const std::size_t length = traces[order[begin]].samples.size();
    while (end < order.size() && traces[order[end]].samples.size() == length) ++end;
    const std::span<const std::size_t> windows(order.data() + begin, end - begin);
    const std::span<const std::size_t> lanes(all.data(), windows.size());
    const auto at = [&](std::size_t lane) -> Disassembly& { return out[windows[lane]]; };

    // Every level of the model reads the window the same way (GatherPlan
    // holds them to one normalization setting), so each is prepared once.
    // Then level 1, which scores every lane, is gathered once for the whole
    // bucket.
    prepared.clear();
    if (plan_.normalize()) normalized.resize(windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const sim::Trace& trace = traces[windows[i]];
      if (!plan_.normalize()) {
        prepared.push_back(&trace.samples);
        continue;
      }
      normalized[i] = features::FeaturePipeline::preprocess_window(trace, true);
      prepared.push_back(&normalized[i]);
    }
    gather.begin(plan_, prepared);

    // Level 1.  The scored walk keeps each group's log-softmax entry, or a
    // one-hot factor when the level has no score surface.
    if (scored) {
      group_lp.assign(lanes.size() * groups, -kInf);
      best_lp.assign(lanes.size(), -kInf);
    }
    score_level(group_level_, gather, lanes, scored, keep_for(group_level_),
                [&](std::size_t i, const ml::ScoredPrediction& p,
                    const linalg::Vector& lp) {
      Disassembly& o = at(lanes[i]);
      o.group = p.label;
      if (watch == &group_level_) o.monitor_features = std::move(kept[i]);
      fold_gate(o, group_level_.gate, p, /*fatal=*/true);
      if (!scored) return;
      double* row = group_lp.data() + lanes[i] * groups;
      for (const auto& [group, level] : instruction_levels_) {
        (void)level;
        if (lp.empty()) {
          if (group == p.label) *row = 0.0;
        } else {
          const std::vector<int>& labels = group_level_.classifier->score_labels();
          const auto it = std::find(labels.begin(), labels.end(), group);
          if (it != labels.end()) {
            *row = lp[static_cast<std::size_t>(it - labels.begin())];
          }
        }
        best_lp[lanes[i]] = std::max(best_lp[lanes[i]], *row);
        ++row;
      }
    });
    for (const std::size_t lane : lanes) {
      if (instruction_levels_.find(at(lane).group) == instruction_levels_.end()) {
        throw std::invalid_argument("classify_within_group: group not trained");
      }
      if (scored) at(lane).log_posterior.assign(posterior_classes_.size(), -kInf);
    }

    // Level 2.  Each group runs on the lanes that predicted it; scored, also
    // on every lane where it is within `reach` of the best group, so the
    // posterior keeps honest mass outside the predicted group.  A group out
    // of reach spreads its exact mass evenly over its classes.  Only the
    // predicted group's prediction sets the class and drives the verdict.
    std::size_t group_index = 0;
    for (const auto& [group, level] : instruction_levels_) {
      const std::size_t gi = group_index++;
      const double log_members =
          scored ? std::log(static_cast<double>(level.members.size())) : 0.0;
      subset.clear();
      for (const std::size_t lane : lanes) {
        if (at(lane).group == group) {
          subset.push_back(lane);
          continue;
        }
        if (!scored) continue;
        const double g_lp = group_lp[lane * groups + gi];
        if (g_lp >= best_lp[lane] - reach) {
          subset.push_back(lane);
          continue;
        }
        for (const std::size_t c : level.members) {
          at(lane).log_posterior[c] = g_lp - log_members;
        }
      }
      const std::span<const std::size_t> sub = subset;
      score_level(level, gather, sub, scored, keep_for(level),
                  [&](std::size_t i, const ml::ScoredPrediction& p,
                      const linalg::Vector& lp) {
        Disassembly& o = at(sub[i]);
        if (watch == &level) o.monitor_features = std::move(kept[i]);
        if (o.group == group) {
          o.class_idx = static_cast<std::size_t>(p.label);
          fold_gate(o, level.gate, p, /*fatal=*/true);
        }
        if (!scored) return;
        // log P(class | x) = log P(group | x) + log P(class | group, x).
        const double g_lp = group_lp[sub[i] * groups + gi];
        if (lp.empty()) {
          o.log_posterior[posterior_index(p.label)] = g_lp;
          return;
        }
        const std::vector<int>& labels = level.classifier->score_labels();
        for (std::size_t k = 0; k < labels.size(); ++k) {
          o.log_posterior[posterior_index(labels[k])] = g_lp + lp[k];
        }
      });
    }

    // Level 3: operand recovery on the windows whose class uses each one
    // (operand posteriors are out of scope, so no score surface).
    for (const bool rd : {true, false}) {
      const Level* level = rd ? rd_level_.get() : rr_level_.get();
      if (level == nullptr) continue;
      subset.clear();
      for (const std::size_t lane : lanes) {
        const std::size_t class_idx = at(lane).class_idx;
        if (rd ? avr::class_uses_rd(class_idx) : avr::class_uses_rr(class_idx)) {
          subset.push_back(lane);
        }
      }
      score_level(*level, gather, subset, /*surface=*/false, nullptr,
                  [&](std::size_t i, const ml::ScoredPrediction& p,
                      const linalg::Vector&) {
        Disassembly& o = at(subset[i]);
        (rd ? o.rd : o.rr) = static_cast<std::uint8_t>(p.label);
        fold_gate(o, level->gate, p, /*fatal=*/false);
      });
    }
  }
}

Disassembly HierarchicalDisassembler::classify(const sim::Trace& trace) const {
  Disassembly out;
  classify_walk({&trace, 1}, {&out, 1}, /*scored=*/false);
  return out;
}

Disassembly HierarchicalDisassembler::classify_scored(const sim::Trace& trace) const {
  Disassembly out;
  classify_walk({&trace, 1}, {&out, 1}, /*scored=*/true);
  return out;
}

std::vector<Disassembly> HierarchicalDisassembler::classify_batch(
    std::span<const sim::Trace> traces) const {
  std::vector<Disassembly> out(traces.size());
  classify_walk(traces, out, /*scored=*/false);
  return out;
}

std::vector<Disassembly> HierarchicalDisassembler::classify_batch_scored(
    std::span<const sim::Trace> traces) const {
  std::vector<Disassembly> out(traces.size());
  classify_walk(traces, out, /*scored=*/true);
  return out;
}

std::vector<Disassembly> HierarchicalDisassembler::classify_monitored(
    std::span<const sim::Trace> traces, bool scored) const {
  std::vector<Disassembly> out(traces.size());
  classify_walk(traces, out, scored, /*keep=*/true);
  return out;
}

}  // namespace sidis::core
