#include "core/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "avr/grouping.hpp"

namespace sidis::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double logsumexp(const std::vector<double>& v) {
  double m = kNegInf;
  for (double x : v) m = std::max(m, x);
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (double x : v) s += std::exp(x - m);
  return m + std::log(s);
}

void log_softmax_inplace(std::vector<double>& v) {
  const double z = logsumexp(v);
  if (!std::isfinite(z)) return;  // all -inf: leave as-is
  for (double& x : v) x -= z;
}

/// w_p * a + w_e * b with 0 * (-inf) treated as "channel not consulted".
double weighted_sum(const LevelFusion& f, double a, double b) {
  double s = 0.0;
  if (f.power_weight != 0.0) s += f.power_weight * a;
  if (f.em_weight != 0.0) s += f.em_weight * b;
  return s;
}

}  // namespace

std::string to_string(FusionMode mode) {
  return mode == FusionMode::kScore ? "score" : "feature";
}

FusedDisassembler::FusedDisassembler(
    std::shared_ptr<const HierarchicalDisassembler> power,
    std::shared_ptr<const HierarchicalDisassembler> em, LevelFusion group,
    LevelFusion instruction)
    : power_(std::move(power)),
      em_(std::move(em)),
      group_(group),
      instruction_(instruction) {
  if (power_ == nullptr) {
    throw std::invalid_argument("FusedDisassembler: power model is null");
  }
  if (em_ != nullptr &&
      em_->posterior_classes() != power_->posterior_classes()) {
    throw std::invalid_argument(
        "FusedDisassembler: channel models disagree on the class support");
  }
  rebuild_support();
}

void FusedDisassembler::rebuild_support() {
  support_.groups.clear();
  support_.members.clear();
  const std::vector<std::size_t>& classes = power_->posterior_classes();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const int g = avr::group_of_class(classes[i]);
    const auto it = std::find(support_.groups.begin(), support_.groups.end(), g);
    std::size_t gi;
    if (it == support_.groups.end()) {
      support_.groups.push_back(g);
      support_.members.emplace_back();
      gi = support_.groups.size() - 1;
    } else {
      gi = static_cast<std::size_t>(it - support_.groups.begin());
    }
    support_.members[gi].push_back(i);
  }
}

const std::vector<std::size_t>& FusedDisassembler::posterior_classes() const {
  return power_->posterior_classes();
}

bool FusedDisassembler::degenerate_to(sim::Channel channel) const {
  if (group_.mode != FusionMode::kScore ||
      instruction_.mode != FusionMode::kScore) {
    return false;
  }
  if (channel == sim::Channel::kPower) {
    return group_.em_weight == 0.0 && instruction_.em_weight == 0.0;
  }
  return group_.power_weight == 0.0 && instruction_.power_weight == 0.0;
}

linalg::Vector FusedDisassembler::joint_features(int group,
                                                 const sim::Trace& pview,
                                                 const sim::Trace& eview) const {
  const auto level_of = [group](const HierarchicalDisassembler& model)
      -> const HierarchicalDisassembler::Level* {
    if (group < 0) return &model.group_level_;
    const auto it = model.instruction_levels_.find(group);
    return it == model.instruction_levels_.end() ? nullptr : &it->second;
  };
  const HierarchicalDisassembler::Level* pl = level_of(*power_);
  const HierarchicalDisassembler::Level* el = level_of(*em_);
  if (pl == nullptr || el == nullptr || pl->trivial || el->trivial) {
    throw std::logic_error("joint_features: level has no pipeline");
  }
  const linalg::Vector pf = pl->pipeline.transform(pview, pl->components);
  const linalg::Vector ef = el->pipeline.transform(eview, el->components);
  linalg::Vector joint(pf.size() + ef.size());
  std::copy(pf.begin(), pf.end(), joint.begin());
  std::copy(ef.begin(), ef.end(),
            joint.begin() + static_cast<std::ptrdiff_t>(pf.size()));
  return joint;
}

void FusedDisassembler::train_feature_heads(
    const std::map<std::size_t, sim::TraceSet>& classes) {
  if (em_ == nullptr) {
    throw std::logic_error("train_feature_heads: no EM channel model");
  }
  group_head_.reset();
  instruction_heads_.clear();

  // Per-trace joint features per level, gathered once.
  struct LevelRows {
    std::vector<linalg::Vector> x;
    std::vector<int> y;
  };
  LevelRows group_rows;
  std::map<int, LevelRows> instr_rows;

  const bool group_trained =
      !power_->group_level_.trivial && !em_->group_level_.trivial;
  for (const auto& [cls, traces] : classes) {
    const int g = avr::group_of_class(cls);
    const bool instr_trained =
        power_->instruction_levels_.count(g) != 0 &&
        em_->instruction_levels_.count(g) != 0 &&
        !power_->instruction_levels_.at(g).trivial &&
        !em_->instruction_levels_.at(g).trivial;
    for (const sim::Trace& t : traces) {
      if (!t.has_em()) {
        throw std::invalid_argument(
            "train_feature_heads: corpus trace lacks an EM window");
      }
      const sim::Trace pview = sim::channel_view(t, sim::Channel::kPower);
      const sim::Trace eview = sim::channel_view(t, sim::Channel::kEm);
      if (group_trained) {
        group_rows.x.push_back(joint_features(-1, pview, eview));
        group_rows.y.push_back(g);
      }
      if (instr_trained) {
        LevelRows& rows = instr_rows[g];
        rows.x.push_back(joint_features(g, pview, eview));
        rows.y.push_back(static_cast<int>(cls));
      }
    }
  }

  const auto fit_head = [](LevelRows& rows) {
    ml::Dataset train;
    train.x = linalg::Matrix(rows.x.size(), rows.x.front().size());
    for (std::size_t r = 0; r < rows.x.size(); ++r) {
      for (std::size_t c = 0; c < rows.x[r].size(); ++c) {
        train.x(r, c) = rows.x[r][c];
      }
    }
    train.y = std::move(rows.y);
    auto head = std::make_unique<ml::Qda>();
    head->fit(train);
    return head;
  };

  // A head is only useful when its level actually discriminates (>= 2
  // labels present in the corpus).
  const auto distinct = [](const std::vector<int>& y) {
    for (std::size_t i = 1; i < y.size(); ++i) {
      if (y[i] != y.front()) return true;
    }
    return false;
  };
  if (group_trained && !group_rows.y.empty() && distinct(group_rows.y)) {
    group_head_ = fit_head(group_rows);
  }
  for (auto& [g, rows] : instr_rows) {
    if (!rows.y.empty() && distinct(rows.y)) {
      instruction_heads_[g] = fit_head(rows);
    }
  }
}

Disassembly FusedDisassembler::degrade_to(const Disassembly& survivor) {
  Disassembly out = survivor;
  out.verdict = std::max(out.verdict, Verdict::kDegraded);
  return out;
}

Disassembly FusedDisassembler::fuse(const sim::Trace& pview,
                                    const sim::Trace& eview,
                                    const Disassembly& p,
                                    const Disassembly& e) const {
  const std::vector<std::size_t>& classes = power_->posterior_classes();
  const std::size_t ngroups = support_.groups.size();

  // Factor each channel's composed posterior back into group marginals.
  std::vector<double> gp_p(ngroups, kNegInf), gp_e(ngroups, kNegInf);
  std::vector<double> scratch;
  for (std::size_t gi = 0; gi < ngroups; ++gi) {
    scratch.clear();
    for (std::size_t m : support_.members[gi]) scratch.push_back(p.log_posterior[m]);
    gp_p[gi] = logsumexp(scratch);
    scratch.clear();
    for (std::size_t m : support_.members[gi]) scratch.push_back(e.log_posterior[m]);
    gp_e[gi] = logsumexp(scratch);
  }

  // Fused group posterior.
  std::vector<double> g_lp(ngroups, kNegInf);
  if (group_.mode == FusionMode::kFeature && group_head_ != nullptr) {
    const linalg::Vector scores = group_head_->class_scores(joint_features(-1, pview, eview));
    const std::vector<int>& labels = group_head_->score_labels();
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const auto it =
          std::find(support_.groups.begin(), support_.groups.end(), labels[i]);
      if (it != support_.groups.end()) {
        g_lp[static_cast<std::size_t>(it - support_.groups.begin())] = scores[i];
      }
    }
  } else {
    for (std::size_t gi = 0; gi < ngroups; ++gi) {
      g_lp[gi] = weighted_sum(group_, gp_p[gi], gp_e[gi]);
    }
  }
  log_softmax_inplace(g_lp);
  std::size_t best_g = 0;
  for (std::size_t gi = 1; gi < ngroups; ++gi) {
    if (g_lp[gi] > g_lp[best_g]) best_g = gi;
  }

  // Fused within-group conditionals, composed into the joint posterior.
  linalg::Vector fused_lp(classes.size());
  for (std::size_t gi = 0; gi < ngroups; ++gi) {
    const std::vector<std::size_t>& mem = support_.members[gi];
    std::vector<double> cond(mem.size(), kNegInf);
    const ml::Qda* head = nullptr;
    if (instruction_.mode == FusionMode::kFeature) {
      const auto it = instruction_heads_.find(support_.groups[gi]);
      if (it != instruction_heads_.end()) head = it->second.get();
    }
    if (head != nullptr) {
      const linalg::Vector scores =
          head->class_scores(joint_features(support_.groups[gi], pview, eview));
      const std::vector<int>& labels = head->score_labels();
      for (std::size_t i = 0; i < labels.size(); ++i) {
        for (std::size_t k = 0; k < mem.size(); ++k) {
          if (classes[mem[k]] == static_cast<std::size_t>(labels[i])) {
            cond[k] = scores[i];
            break;
          }
        }
      }
    } else {
      for (std::size_t k = 0; k < mem.size(); ++k) {
        double cp = p.log_posterior[mem[k]] - gp_p[gi];
        double ce = e.log_posterior[mem[k]] - gp_e[gi];
        if (std::isnan(cp)) cp = 0.0;
        if (std::isnan(ce)) ce = 0.0;
        cond[k] = weighted_sum(instruction_, cp, ce);
      }
    }
    log_softmax_inplace(cond);
    for (std::size_t k = 0; k < mem.size(); ++k) {
      fused_lp[mem[k]] = g_lp[gi] + cond[k];
    }
  }

  std::size_t best_idx = support_.members[best_g].front();
  for (std::size_t m : support_.members[best_g]) {
    if (fused_lp[m] > fused_lp[best_idx]) best_idx = m;
  }

  Disassembly out;
  out.group = support_.groups[best_g];
  out.class_idx = classes[best_idx];
  out.verdict = std::max(p.verdict, e.verdict);
  out.margin_headroom = std::min(p.margin_headroom, e.margin_headroom);
  out.score_headroom = std::min(p.score_headroom, e.score_headroom);
  out.log_posterior = std::move(fused_lp);

  // Operand recovery stays on the power channel (the register-file row
  // drivers couple into the shunt, not reliably into a mispositioned loop).
  if (avr::class_uses_rd(out.class_idx)) {
    if (out.class_idx == p.class_idx && p.rd) {
      out.rd = p.rd;
    } else if (power_->rd_level_ != nullptr) {
      out.rd = power_->classify_rd(pview);
    }
  }
  if (avr::class_uses_rr(out.class_idx)) {
    if (out.class_idx == p.class_idx && p.rr) {
      out.rr = p.rr;
    } else if (power_->rr_level_ != nullptr) {
      out.rr = power_->classify_rr(pview);
    }
  }
  return out;
}

Disassembly FusedDisassembler::fuse_window(const sim::Trace& pview,
                                           const sim::Trace& eview,
                                           const Disassembly& p,
                                           const Disassembly& e) const {
  if (!p.accepted() && !e.accepted()) {
    Disassembly out = p;
    out.margin_headroom = std::min(p.margin_headroom, e.margin_headroom);
    out.score_headroom = std::min(p.score_headroom, e.score_headroom);
    return out;
  }
  if (!e.accepted()) return degrade_to(p);
  if (!p.accepted()) return degrade_to(e);
  return fuse(pview, eview, p, e);
}

std::vector<Disassembly> FusedDisassembler::classify_paired(
    std::span<const sim::Trace> traces, bool scored) const {
  if (power_ == nullptr) throw std::runtime_error("FusedDisassembler: empty");
  // Route every window: power-only weights, a missing EM model or a missing
  // EM window serve the power channel's own result (the last one flagged, so
  // the operator sees the blind spot); EM-only weights the EM channel's;
  // everything else fuses both channels' posteriors.
  const bool power_only = em_ == nullptr || degenerate_to(sim::Channel::kPower);
  const bool em_only = !power_only && degenerate_to(sim::Channel::kEm);
  std::vector<std::size_t> power_idx, em_idx, fused_idx;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (power_only || !traces[i].has_em()) {
      power_idx.push_back(i);
    } else {
      (em_only ? em_idx : fused_idx).push_back(i);
    }
  }
  const auto views = [&](const std::vector<std::size_t>& idx, sim::Channel channel) {
    sim::TraceSet out;
    out.reserve(idx.size());
    for (const std::size_t i : idx) out.push_back(sim::channel_view(traces[i], channel));
    return out;
  };

  std::vector<Disassembly> out(traces.size());
  const auto serve = [&](const HierarchicalDisassembler& model, sim::Channel channel,
                         const std::vector<std::size_t>& idx) {
    if (idx.empty()) return;
    const sim::TraceSet v = views(idx, channel);
    std::vector<Disassembly> sub =
        scored ? model.classify_batch_scored(v) : model.classify_batch(v);
    for (std::size_t k = 0; k < idx.size(); ++k) out[idx[k]] = std::move(sub[k]);
  };
  serve(*power_, sim::Channel::kPower, power_idx);
  if (!power_only) {
    for (const std::size_t i : power_idx) {
      out[i].verdict = std::max(out[i].verdict, Verdict::kDegraded);
    }
  }
  if (em_only) serve(*em_, sim::Channel::kEm, em_idx);
  if (fused_idx.empty()) return out;

  // Non-degenerate fusion is defined on the channel posteriors, so the plain
  // and scored paths are the same computation (the posterior rides along).
  const sim::TraceSet pviews = views(fused_idx, sim::Channel::kPower);
  const sim::TraceSet eviews = views(fused_idx, sim::Channel::kEm);
  const std::vector<Disassembly> p = exact_scored(*power_, pviews);
  const std::vector<Disassembly> e = exact_scored(*em_, eviews);
  for (std::size_t k = 0; k < fused_idx.size(); ++k) {
    out[fused_idx[k]] = fuse_window(pviews[k], eviews[k], p[k], e[k]);
  }
  return out;
}

std::vector<Disassembly> FusedDisassembler::exact_scored(
    const HierarchicalDisassembler& model, std::span<const sim::Trace> traces) {
  std::vector<Disassembly> out(traces.size());
  model.classify_walk(traces, out, /*scored=*/true, /*keep=*/false,
                      /*reach=*/std::numeric_limits<double>::infinity());
  return out;
}

Disassembly FusedDisassembler::classify(const sim::Trace& paired) const {
  return std::move(classify_paired({&paired, 1}, /*scored=*/false).front());
}

Disassembly FusedDisassembler::classify_scored(const sim::Trace& paired) const {
  return std::move(classify_paired({&paired, 1}, /*scored=*/true).front());
}

std::vector<Disassembly> FusedDisassembler::classify_batch(
    std::span<const sim::Trace> traces) const {
  return classify_paired(traces, /*scored=*/false);
}

std::vector<Disassembly> FusedDisassembler::classify_batch_scored(
    std::span<const sim::Trace> traces) const {
  return classify_paired(traces, /*scored=*/true);
}

double FusedDisassembler::calibrate_fusion(const sim::TraceSet& heldout,
                                           const FusionCalibration& cal) {
  if (em_ == nullptr) {
    throw std::logic_error("calibrate_fusion: no EM channel model");
  }
  if (heldout.empty()) {
    throw std::invalid_argument("calibrate_fusion: empty held-out set");
  }
  for (const sim::Trace& t : heldout) {
    if (!t.has_em()) {
      throw std::invalid_argument("calibrate_fusion: held-out trace lacks EM");
    }
  }
  // Channel posteriors once; every candidate only re-mixes them.
  const sim::TraceSet pviews = sim::channel_views(heldout, sim::Channel::kPower);
  const sim::TraceSet eviews = sim::channel_views(heldout, sim::Channel::kEm);
  const std::vector<Disassembly> p = exact_scored(*power_, pviews);
  const std::vector<Disassembly> e = exact_scored(*em_, eviews);

  std::vector<LevelFusion> group_candidates, instr_candidates;
  for (double w : cal.weight_grid) {
    group_candidates.push_back({FusionMode::kScore, w, 1.0 - w});
    instr_candidates.push_back({FusionMode::kScore, w, 1.0 - w});
  }
  if (group_head_ != nullptr) {
    group_candidates.push_back({FusionMode::kFeature, 0.5, 0.5});
  }
  if (!instruction_heads_.empty()) {
    instr_candidates.push_back({FusionMode::kFeature, 0.5, 0.5});
  }

  LevelFusion best_group = group_candidates.front();
  LevelFusion best_instr = instr_candidates.front();
  std::size_t best_hits = 0;
  bool first = true;
  for (const LevelFusion& g : group_candidates) {
    for (const LevelFusion& i : instr_candidates) {
      group_ = g;
      instruction_ = i;
      std::size_t hits = 0;
      for (std::size_t k = 0; k < heldout.size(); ++k) {
        // Score each candidate exactly as it would serve: the degenerate
        // corners return the channel's own prediction verbatim.
        std::size_t pred;
        if (degenerate_to(sim::Channel::kPower)) {
          pred = p[k].class_idx;
        } else if (degenerate_to(sim::Channel::kEm)) {
          pred = e[k].class_idx;
        } else {
          pred = fuse_window(pviews[k], eviews[k], p[k], e[k]).class_idx;
        }
        if (pred == heldout[k].meta.class_idx) ++hits;
      }
      if (first || hits > best_hits) {
        best_hits = hits;
        best_group = g;
        best_instr = i;
        first = false;
      }
    }
  }
  group_ = best_group;
  instruction_ = best_instr;
  return static_cast<double>(best_hits) / static_cast<double>(heldout.size());
}

}  // namespace sidis::core
