// The traced run: a per-layer ledger of the hierarchical classify path,
// measured from outside through public entry points only.
//
// The model's levels are private, so the ledger rebuilds them with the
// public recipe HierarchicalDisassembler::train uses (FeaturePipeline::
// precompute / fit, ml::make_classifier) -- which also splits the setup time
// by stage -- and proves on every replayed window that each rebuilt level
// gives the label the model's own level entry point gives.  The hot path is
// then replayed exactly as classify_batch / classify_batch_scored walk one
// length bucket, with timers around Cwt::marshal, Cwt::coefficients_soa,
// FeaturePipeline::transform_soa_batch and the classifier's batch scoring.
#include <algorithm>
#include <map>
#include <set>

#include "bench.hpp"
#include "core/sequence.hpp"
#include "dsp/wavelet.hpp"
#include "runtime/decoder.hpp"

namespace perfbench {

namespace {

struct Level {
  bool trivial = false;
  int only_label = 0;
  features::FeaturePipeline pipeline;
  std::unique_ptr<ml::Classifier> classifier;
  std::size_t components = 0;
  std::unique_ptr<dsp::Cwt> cwt;  ///< same bank as the pipeline's, for the gather probe
  std::vector<std::size_t> js, ks;
  std::uint32_t bit = 0;  ///< identifies the level in point-overlap masks
};

struct Rebuilt {
  Level group;
  std::map<int, Level> instruction;
  std::unique_ptr<Level> rd, rr;
  std::vector<std::size_t> posterior_classes;
  std::vector<const Level*> by_bit;
  double precompute_s = 0.0, fit_s = 0.0, train_transform_s = 0.0, ml_fit_s = 0.0;
};

bool single_label(const std::vector<int>& labels) {
  return std::all_of(labels.begin(), labels.end(),
                     [&](int l) { return l == labels.front(); });
}

void fit_level(Level& level, const std::vector<const features::FeaturePipeline::ClassData*>& data,
               const features::LabeledTraces& input, const core::HierarchicalConfig& cfg,
               std::size_t components, Rebuilt& r) {
  level.components = components;
  level.bit = static_cast<std::uint32_t>(r.by_bit.size());
  r.by_bit.push_back(&level);
  if (single_label(input.labels)) {
    level.trivial = true;
    level.only_label = input.labels.front();
    return;
  }
  const Clock::time_point t0 = Clock::now();
  level.pipeline = features::FeaturePipeline::fit(data, cfg.pipeline);
  const Clock::time_point t1 = Clock::now();
  const ml::Dataset train = level.pipeline.transform(input, components);
  const Clock::time_point t2 = Clock::now();
  level.classifier = ml::make_classifier(cfg.classifier, cfg.factory);
  level.classifier->fit(train);
  const Clock::time_point t3 = Clock::now();
  r.fit_s += seconds_between(t0, t1);
  r.train_transform_s += seconds_between(t1, t2);
  r.ml_fit_s += seconds_between(t2, t3);
  level.cwt = std::make_unique<dsp::Cwt>(level.pipeline.config().cwt);
  for (const stats::GridPoint& p : level.pipeline.unified_points()) {
    level.js.push_back(p.j);
    level.ks.push_back(p.k);
  }
}

/// HierarchicalDisassembler::train, stage by stage.  Fills `r` in place:
/// Rebuilt::by_bit points into it.
void rebuild(const core::ProfilingData& data, const core::HierarchicalConfig& cfg, Rebuilt& r) {
  features::LabeledTraces class_input, group_input;
  std::map<int, features::LabeledTraces> per_group;
  for (const auto& [cls, traces] : data.classes) {
    const int group = avr::group_of_class(cls);
    class_input.labels.push_back(static_cast<int>(cls));
    class_input.sets.push_back(&traces);
    group_input.labels.push_back(group);
    group_input.sets.push_back(&traces);
    per_group[group].labels.push_back(static_cast<int>(cls));
    per_group[group].sets.push_back(&traces);
    r.posterior_classes.push_back(cls);
  }
  Clock::time_point t0 = Clock::now();
  const std::vector<features::FeaturePipeline::ClassData> precomputed =
      features::FeaturePipeline::precompute(class_input, cfg.pipeline);
  r.precompute_s += seconds_between(t0, Clock::now());
  std::map<int, const features::FeaturePipeline::ClassData*> by_class;
  std::vector<const features::FeaturePipeline::ClassData*> all;
  for (const auto& cd : precomputed) {
    by_class[cd.label] = &cd;
    all.push_back(&cd);
  }
  fit_level(r.group, all, group_input, cfg, cfg.group_components, r);
  for (const auto& [group, input] : per_group) {
    std::vector<const features::FeaturePipeline::ClassData*> subset;
    for (int label : input.labels) subset.push_back(by_class.at(label));
    fit_level(r.instruction[group], subset, input, cfg, cfg.instruction_components, r);
  }
  const auto registers = [&](const std::map<std::uint8_t, sim::TraceSet>& sets)
      -> std::unique_ptr<Level> {
    if (sets.size() < 2) return nullptr;
    features::LabeledTraces input;
    for (const auto& [reg, traces] : sets) {
      input.labels.push_back(static_cast<int>(reg));
      input.sets.push_back(&traces);
    }
    const Clock::time_point p0 = Clock::now();
    const std::vector<features::FeaturePipeline::ClassData> pre =
        features::FeaturePipeline::precompute(input, cfg.pipeline);
    r.precompute_s += seconds_between(p0, Clock::now());
    std::vector<const features::FeaturePipeline::ClassData*> ptrs;
    for (const auto& cd : pre) ptrs.push_back(&cd);
    auto level = std::make_unique<Level>();
    fit_level(*level, ptrs, input, cfg, cfg.register_components, r);
    return level;
  };
  r.rd = registers(data.rd_classes);
  r.rr = registers(data.rr_classes);
}

/// Labels one window received from the replay.
struct Labels {
  int group = 0;
  std::size_t class_idx = 0;
  std::optional<std::uint8_t> rd, rr;
  std::vector<std::pair<int, std::size_t>> level2;  ///< every level-2 label evaluated
  std::uint32_t visited = 0;                        ///< bit mask over Level::bit
};

/// Accumulated layer times of one replay pass (microseconds).
struct Layers {
  double marshal = 0, gather = 0, project = 0, score = 0;
  double level[3] = {0, 0, 0};
  double level2_models = 0;
};

/// One length bucket of classify_batch (plain) or classify_batch_scored
/// (scored), replayed on the rebuilt levels with timers.
class Replay {
 public:
  Replay(const Rebuilt& r, bool scored) : r_(r), scored_(scored) {}

  std::vector<Labels> run(const sim::TraceSet& chunk, Layers& t) {
    n_ = chunk.size();
    length_ = chunk.front().samples.size();
    std::vector<Labels> out(n_);

    Clock::time_point t0 = Clock::now();
    std::vector<std::vector<double>> normalized(n_);
    std::vector<const std::vector<double>*> ptrs(n_);
    const bool normalize = r_.group.trivial
                               ? r_.instruction.begin()->second.pipeline.config()
                                     .per_trace_normalization
                               : r_.group.pipeline.config().per_trace_normalization;
    for (std::size_t p = 0; p < n_; ++p) {
      if (normalize) {
        normalized[p] = features::FeaturePipeline::preprocess_window(chunk[p], true);
        ptrs[p] = &normalized[p];
      } else {
        ptrs[p] = &chunk[p].samples;
      }
    }
    dsp::Cwt::marshal({ptrs.data(), ptrs.size()}, soa_);
    t.marshal += micros_between(t0, Clock::now());

    std::vector<std::size_t> all(n_);
    for (std::size_t p = 0; p < n_; ++p) all[p] = p;

    // Level 1.
    t0 = Clock::now();
    probe_ = 0.0;
    if (r_.group.trivial) {
      for (Labels& l : out) l.group = r_.group.only_label;
    } else {
      const std::vector<ml::ScoredPrediction> g = scored_ ? scored_level(r_.group, all, t)
                                                          : predict(r_.group, all, t);
      for (std::size_t p = 0; p < n_; ++p) {
        out[p].group = g[p].label;
        out[p].visited |= 1u << r_.group.bit;
      }
    }
    t.level[0] += micros_between(t0, Clock::now()) - probe_;

    // Level 2: the predicted group's model on its sub-batch (plain), or
    // every trained model on the whole bucket (scored).
    t0 = Clock::now();
    probe_ = 0.0;
    if (scored_) {
      for (const auto& [group, level] : r_.instruction) {
        if (level.trivial) {
          for (Labels& l : out) {
            if (l.group == group) l.class_idx = static_cast<std::size_t>(level.only_label);
          }
          continue;
        }
        const std::vector<ml::ScoredPrediction> c = scored_level(level, all, t);
        for (std::size_t p = 0; p < n_; ++p) {
          out[p].level2.emplace_back(group, static_cast<std::size_t>(c[p].label));
          out[p].visited |= 1u << level.bit;
          if (out[p].group == group) out[p].class_idx = static_cast<std::size_t>(c[p].label);
        }
        t.level2_models += static_cast<double>(n_);
      }
    } else {
      std::map<int, std::vector<std::size_t>> by_group;
      for (std::size_t p = 0; p < n_; ++p) by_group[out[p].group].push_back(p);
      for (const auto& [group, subset] : by_group) {
        const Level& level = r_.instruction.at(group);
        if (level.trivial) {
          for (std::size_t p : subset) out[p].class_idx = static_cast<std::size_t>(level.only_label);
          continue;
        }
        const std::vector<ml::ScoredPrediction> c = predict(level, subset, t);
        for (std::size_t i = 0; i < subset.size(); ++i) {
          Labels& l = out[subset[i]];
          l.class_idx = static_cast<std::size_t>(c[i].label);
          l.level2.emplace_back(group, l.class_idx);
          l.visited |= 1u << level.bit;
        }
        t.level2_models += static_cast<double>(subset.size());
      }
    }
    t.level[1] += micros_between(t0, Clock::now()) - probe_;

    // Level 3: operand recovery where the class uses the operand.
    t0 = Clock::now();
    probe_ = 0.0;
    registers(r_.rd.get(), true, out, t);
    registers(r_.rr.get(), false, out, t);
    t.level[2] += micros_between(t0, Clock::now()) - probe_;
    return out;
  }

 private:
  /// The bucket (or a lane subset of it) in SoA form; subsets are copied
  /// row-contiguously, as classify_batch does.
  std::span<const double> lanes(std::span<const std::size_t> subset) {
    if (subset.size() == n_) return soa_;
    const std::size_t m = subset.size();
    subset_.resize(length_ * m);
    for (std::size_t s = 0; s < length_; ++s) {
      const double* src = soa_.data() + s * n_;
      double* dst = subset_.data() + s * m;
      for (std::size_t i = 0; i < m; ++i) dst[i] = src[subset[i]];
    }
    return subset_;
  }

  /// transform_soa_batch, with a separately timed coefficients_soa probe on
  /// the same lanes so the transform's self time excludes its gather.
  linalg::Matrix features(const Level& level, std::span<const double> soa, std::size_t m,
                          Layers& t) {
    Clock::time_point t0 = Clock::now();
    const linalg::Matrix probe =
        level.cwt->coefficients_soa(soa, length_, m, level.js, level.ks, probe_ws_);
    Clock::time_point t1 = Clock::now();
    const double gather = micros_between(t0, t1);
    probe_ += gather;
    t.gather += gather;
    (void)probe;
    t0 = Clock::now();
    linalg::Matrix f = level.pipeline.transform_soa_batch(soa, length_, m, level.components, ws_);
    t.project += micros_between(t0, Clock::now()) - gather;
    return f;
  }

  std::vector<ml::ScoredPrediction> predict(const Level& level,
                                            std::span<const std::size_t> subset, Layers& t) {
    const linalg::Matrix f = features(level, lanes(subset), subset.size(), t);
    const Clock::time_point t0 = Clock::now();
    std::vector<ml::ScoredPrediction> p = level.classifier->predict_scored_batch(f);
    t.score += micros_between(t0, Clock::now());
    return p;
  }

  /// The scored path's level step: full score surface, argmax for the
  /// label, log-softmax for the posterior factor.
  std::vector<ml::ScoredPrediction> scored_level(const Level& level,
                                                 std::span<const std::size_t> subset,
                                                 Layers& t) {
    const linalg::Matrix f = features(level, lanes(subset), subset.size(), t);
    const Clock::time_point t0 = Clock::now();
    const linalg::Matrix s = level.classifier->class_scores_batch(f);
    t.score += micros_between(t0, Clock::now());
    const std::vector<int>& labels = level.classifier->score_labels();
    std::vector<ml::ScoredPrediction> out(subset.size());
    linalg::Vector col(s.rows());
    for (std::size_t p = 0; p < subset.size(); ++p) {
      for (std::size_t c = 0; c < s.rows(); ++c) col[c] = s(c, p);
      out[p] = ml::scored_from_scores(col, labels);
      core::log_softmax(col);  // the posterior factor the scored path composes
    }
    return out;
  }

  void registers(const Level* level, bool rd, std::vector<Labels>& out, Layers& t) {
    if (level == nullptr) return;
    std::vector<std::size_t> subset;
    for (std::size_t p = 0; p < n_; ++p) {
      const std::size_t c = out[p].class_idx;
      if (rd ? avr::class_uses_rd(c) : avr::class_uses_rr(c)) subset.push_back(p);
    }
    if (subset.empty()) return;
    std::vector<ml::ScoredPrediction> pred;
    if (level->trivial) {
      pred.assign(subset.size(), ml::ScoredPrediction{level->only_label, 0.0, 0.0});
    } else {
      pred = predict(*level, subset, t);
    }
    for (std::size_t i = 0; i < subset.size(); ++i) {
      Labels& l = out[subset[i]];
      (rd ? l.rd : l.rr) = static_cast<std::uint8_t>(pred[i].label);
      if (!level->trivial) l.visited |= 1u << level->bit;
    }
  }

  const Rebuilt& r_;
  bool scored_;
  std::size_t n_ = 0, length_ = 0;
  std::vector<double> soa_, subset_;
  dsp::CwtBatchWorkspace ws_, probe_ws_;
  double probe_ = 0.0;  ///< gather-probe time inside the current level step
};

/// The rebuilt levels must agree with the model's own level entry points,
/// and the replayed walk with the model's batch verdicts.
bool verify(const core::HierarchicalDisassembler& model, const sim::Trace& trace,
            const Labels& l, const core::Disassembly& d, const Rebuilt& r) {
  if (model.classify_group(trace) != l.group || d.group != l.group) return false;
  for (const auto& [group, label] : l.level2) {
    if (model.classify_within_group(group, trace) != label) return false;
  }
  if (d.class_idx != l.class_idx || d.rd != l.rd || d.rr != l.rr) return false;
  if (l.rd && (!r.rd || model.classify_rd(trace) != *l.rd)) return false;
  if (l.rr && (!r.rr || model.classify_rr(trace) != *l.rr)) return false;
  return true;
}

/// Feature points per window summed over the visited levels, and the size of
/// their union on the shared (scale, time) grid.
std::pair<double, double> point_overlap(const Rebuilt& r, std::uint32_t visited,
                                        std::map<std::uint32_t, std::pair<double, double>>& cache) {
  const auto it = cache.find(visited);
  if (it != cache.end()) return it->second;
  std::set<std::pair<std::size_t, std::size_t>> unique;
  double total = 0.0;
  for (const Level* level : r.by_bit) {
    if ((visited >> level->bit & 1u) == 0) continue;
    total += static_cast<double>(level->js.size());
    for (std::size_t i = 0; i < level->js.size(); ++i) unique.emplace(level->js[i], level->ks[i]);
  }
  return cache[visited] = {total, static_cast<double>(unique.size())};
}

}  // namespace

void run_ledger(const LedgerInput& in, const Options& opt, Report& report) {
  const Trained& trained = *in.trained;
  const core::HierarchicalDisassembler& model = *trained.model;
  report.metric("sim.capture_s", trained.capture_s, "s");
  report.metric("core.calibrate_s", trained.calibrate_s, "s");

  Rebuilt r;
  rebuild(trained.data, trained.recipe.config, r);
  report.metric("features.precompute_s", r.precompute_s, "s");
  report.metric("features.fit_s", r.fit_s, "s");
  report.metric("features.train_transform_s", r.train_transform_s, "s");
  report.metric("ml.fit_s", r.ml_fit_s, "s");
  report.check(r.posterior_classes == model.posterior_classes(),
               "ledger: rebuilt posterior support differs from the model's");
  {
    // The same recipe on half the corpus: which stage grows when the
    // profiling depth shrinks.
    Rebuilt half;
    rebuild(half_depth(trained.data), trained.recipe.config, half);
    report.metric("features.precompute_s.half", half.precompute_s, "s");
    report.metric("features.fit_s.half", half.fit_s, "s");
    report.metric("features.train_transform_s.half", half.train_transform_s, "s");
    report.metric("ml.fit_s.half", half.ml_fit_s, "s");
  }

  const std::vector<sim::TraceSet> chunks = chunked(in.windows->traces);
  const double windows = static_cast<double>(in.windows->traces.size());
  const auto classify = [&](const sim::TraceSet& chunk) {
    return in.scored ? model.classify_batch_scored(chunk) : model.classify_batch(chunk);
  };

  // Untraced and traced passes alternate, so both see the same machine.
  Replay replay(r, in.scored);
  std::vector<double> window_us, replay_us, marshal, gather, project, score, l1, l2, l3;
  std::vector<core::Disassembly> untraced;
  double points = 0.0, unique_points = 0.0, level2_models = 0.0;
  std::map<std::uint32_t, std::pair<double, double>> overlap_cache;
  bool verified = true;
  const Clock::time_point begin = Clock::now();
  for (std::size_t pass = 0;
       pass < 3 || seconds_between(begin, Clock::now()) < opt.seconds; ++pass) {
    Clock::time_point t0 = Clock::now();
    std::vector<core::Disassembly> outs;
    for (const sim::TraceSet& chunk : chunks) {
      std::vector<core::Disassembly> o = classify(chunk);
      outs.insert(outs.end(), std::make_move_iterator(o.begin()),
                  std::make_move_iterator(o.end()));
    }
    window_us.push_back(micros_between(t0, Clock::now()) / windows);

    Layers t;
    std::vector<Labels> labels;
    t0 = Clock::now();
    for (const sim::TraceSet& chunk : chunks) {
      std::vector<Labels> l = replay.run(chunk, t);
      labels.insert(labels.end(), l.begin(), l.end());
    }
    replay_us.push_back(micros_between(t0, Clock::now()) / windows);
    marshal.push_back(t.marshal / windows);
    gather.push_back(t.gather / windows);
    project.push_back(t.project / windows);
    score.push_back(t.score / windows);
    l1.push_back(t.level[0] / windows);
    l2.push_back(t.level[1] / windows);
    l3.push_back(t.level[2] / windows);

    if (pass == 0) {
      // Every timed window is the same pool, so checking it once covers them.
      level2_models = t.level2_models / windows;
      for (std::size_t i = 0; i < labels.size(); ++i) {
        verified = verified && verify(model, in.windows->traces[i], labels[i], outs[i], r);
        const auto [total, uniq] = point_overlap(r, labels[i].visited, overlap_cache);
        points += total / windows;
        unique_points += uniq / windows;
      }
      untraced = std::move(outs);
    }
  }
  report.check(verified, "ledger: a rebuilt level disagrees with the model's own labels");

  const double window = median(window_us);
  const double attributed = median(marshal) + median(l1) + median(l2) + median(l3);
  report.metric("dsp.marshal_us", median(marshal), "us");
  report.metric("dsp.gather_us", median(gather), "us");
  report.metric("features.project_us", median(project), "us");
  report.metric("ml.score_us", median(score), "us");
  report.metric("core.level1_us", median(l1), "us");
  report.metric("core.level2_us", median(l2), "us");
  report.metric("core.level3_us", median(l3), "us");
  report.metric("core.window_us", window, "us");
  report.metric("core.unattributed_us", window - attributed, "us");
  report.metric("trace.overhead_us", median(replay_us) - window, "us");
  report.metric("dsp.points_per_win", points, "count");
  report.metric("dsp.unique_points_per_win", unique_points, "count");
  report.metric("ml.level2_models_per_win", level2_models, "count");
  report.note("ledger: layers attribute " + std::to_string(attributed) + " us of a " +
              std::to_string(window) + " us untraced window (" +
              std::to_string(100.0 * attributed / window) + "%)");

  // The sequence layer over this workload's own verdicts: a real lattice on
  // scored windows, a pass-through on plain ones.
  std::vector<double> decode_us;
  for (int rep = 0; rep < 5; ++rep) {
    runtime::SequenceDecoderConfig dcfg;
    dcfg.lag = 6;
    runtime::SequenceDecoder decoder(model.posterior_classes(), in.prior, dcfg);
    std::size_t emitted = 0;
    const Clock::time_point t0 = Clock::now();
    for (const core::Disassembly& d : untraced) {
      decoder.push(d);
      while (decoder.poll()) ++emitted;
    }
    emitted += decoder.flush().size();
    decode_us.push_back(micros_between(t0, Clock::now()) / windows);
    report.check(emitted == untraced.size(), "ledger: decoder lost windows");
  }
  report.metric("runtime.decode_us", median(decode_us), "us");
}

}  // namespace perfbench
