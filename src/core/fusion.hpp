// Multimodal power+EM fusion over the hierarchical disassembler.
//
// The paper's follow-up line of work (Bai/Park/Forte, arXiv 2412.07671)
// shows that a second side channel recovers accuracy the power channel alone
// cannot reach and keeps the monitor serviceable when one modality degrades.
// This layer composes two independently trained single-channel
// HierarchicalDisassembler instances -- one fed the supply-current window,
// one the aligned EM-probe window (sim::channel_view) -- two ways, selected
// per hierarchy level by held-out calibration:
//
//   * score-level fusion: each channel's composed per-class log-posterior is
//     factored back into its group and within-group conditional parts, and
//     the factors are mixed with per-level channel reliability weights
//     (w_p, w_e):  s(g)    = w_p log P_p(g|x)  + w_e log P_e(g|x)
//                  s(c|g)  = w_p log P_p(c|g,x) + w_e log P_e(c|g,x)
//     renormalized per level -- a weighted product-of-experts whose (1, 0)
//     corner is *bit-identical* to the power-only classifier;
//   * feature-level fusion: the two channels' fitted per-level pipelines run
//     side by side and their output vectors concatenate into one joint
//     vector scored by a jointly trained QDA head for that level, replacing
//     the score mix where the channels' errors are correlated enough that
//     mixing posteriors cannot help.
//
// Degradation is graceful by construction: a trace with no EM window, or a
// window one channel's reject gates throw out, falls back to the surviving
// channel's full result, flagged kDegraded.  Reject verdicts and headrooms
// always fold across both channels (worst headroom, worst verdict), so the
// fused operating point is never less conservative than the channels'.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hierarchical.hpp"
#include "ml/discriminant.hpp"

namespace sidis::core {

/// How one hierarchy level combines the two channels.
enum class FusionMode : std::uint8_t {
  kScore = 0,    ///< weighted log-posterior mix of the channel models
  kFeature = 1,  ///< joint QDA head over concatenated per-channel features
};

std::string to_string(FusionMode mode);

/// Per-level fusion selection: the mode and, for score fusion, the channel
/// reliability weights.  Defaults to power-only score fusion.
struct LevelFusion {
  FusionMode mode = FusionMode::kScore;
  double power_weight = 1.0;
  double em_weight = 0.0;
};

/// calibrate_fusion() search space: score fusion at each weight below, plus
/// feature fusion at every level whose joint head is trained.
struct FusionCalibration {
  /// Power-weight candidates for score fusion (em weight = 1 - w); ordered,
  /// because ties resolve to the earliest candidate.
  std::vector<double> weight_grid = {1.0, 0.75, 0.5, 0.25, 0.0};
};

class FusedDisassembler {
 public:
  FusedDisassembler() = default;

  /// Composes two trained channel models.  `em` may be null (power-only
  /// deployment; every classify degenerates to the power model).  Both
  /// models must be profiled on the same class support.  Throws
  /// std::invalid_argument on a null power model or mismatched supports.
  FusedDisassembler(std::shared_ptr<const HierarchicalDisassembler> power,
                    std::shared_ptr<const HierarchicalDisassembler> em,
                    LevelFusion group = {}, LevelFusion instruction = {});

  /// Trains the joint feature heads (group level + one per instruction
  /// group) from a paired profiling corpus: each trace's power and EM views
  /// run through the respective channel's fitted level pipeline and the
  /// concatenated vectors fit a QDA per level.  Levels trivial in either
  /// channel get no head.  Requires every trace to carry an EM window.
  void train_feature_heads(const std::map<std::size_t, sim::TraceSet>& classes);

  /// Held-out per-level selection: grid-searches (mode, weights) for the
  /// group and instruction levels jointly, maximizing final-class accuracy
  /// on `heldout` (paired traces labeled via meta.class_idx).  Deterministic:
  /// ties resolve to the earliest candidate (score fusion, power-heavy
  /// first).  Returns the achieved held-out accuracy.
  double calibrate_fusion(const sim::TraceSet& heldout,
                          const FusionCalibration& cal = {});

  /// Fused classification of one paired window.  Power-only degenerate
  /// weights, a missing EM model, or a trace without an EM window reproduce
  /// the power model's result bit for bit (and symmetrically for EM-only
  /// weights).  Otherwise both channels run and the results fuse per the
  /// level selections; one rejected channel degrades to the other, flagged
  /// kDegraded.  Thread-safe like HierarchicalDisassembler::classify.
  Disassembly classify(const sim::Trace& paired) const;

  /// classify() with the fused per-class log-posterior kept.  On the
  /// non-degenerate fusion path classify() and classify_scored() are the
  /// same computation (fusion is defined on the channel posteriors), so both
  /// carry the posterior there.
  Disassembly classify_scored(const sim::Trace& paired) const;

  /// Batched fusion, bit-identical to the scalar calls per window (the
  /// scalar calls are a batch of one): the channel models run their
  /// lane-vectorized classify_batch_scored over the channel views, and the
  /// per-window fusion math is fuse_window.  Degenerate single-channel
  /// weights delegate to that channel's classify_batch (preserving the
  /// plain-path bit-identity guarantee).
  std::vector<Disassembly> classify_batch(std::span<const sim::Trace> traces) const;
  std::vector<Disassembly> classify_batch_scored(std::span<const sim::Trace> traces) const;

  const std::shared_ptr<const HierarchicalDisassembler>& power_model() const {
    return power_;
  }
  const std::shared_ptr<const HierarchicalDisassembler>& em_model() const {
    return em_;
  }
  const LevelFusion& group_fusion() const { return group_; }
  const LevelFusion& instruction_fusion() const { return instruction_; }
  void set_group_fusion(LevelFusion f) { group_ = f; }
  void set_instruction_fusion(LevelFusion f) { instruction_ = f; }
  bool has_feature_heads() const {
    return group_head_ != nullptr || !instruction_heads_.empty();
  }

  /// Shared posterior support (identical across channels by construction).
  const std::vector<std::size_t>& posterior_classes() const;

  /// True when every level runs score fusion with all weight on `channel`.
  bool degenerate_to(sim::Channel channel) const;

 private:
  friend void save_fused_disassembler(std::ostream& os,
                                      const FusedDisassembler& model);
  friend FusedDisassembler load_fused_disassembler(std::istream& is);

  /// Group structure of the posterior support: ascending group ids and, per
  /// group, the member indices into posterior_classes().
  struct GroupSupport {
    std::vector<int> groups;
    std::vector<std::vector<std::size_t>> members;
  };

  void rebuild_support();
  /// The one classify body behind classify(), classify_scored() and their
  /// batch forms: out[i] is the fused recovery of paired window traces[i].
  std::vector<Disassembly> classify_paired(std::span<const sim::Trace> traces,
                                           bool scored) const;
  /// Joint feature vector of one paired window at one level (power part
  /// first).  `group` < 0 addresses the group level.
  linalg::Vector joint_features(int group, const sim::Trace& pview,
                                const sim::Trace& eview) const;
  /// The fusion math on two completed channel results (non-degenerate,
  /// both channels accepted).  `pview`/`eview` feed the feature heads.
  Disassembly fuse(const sim::Trace& pview, const sim::Trace& eview,
                   const Disassembly& p, const Disassembly& e) const;
  /// Full per-window combination: both-rejected fold, one-channel
  /// degradation, else fuse().  Shared by the scalar, batch and calibration
  /// paths so they stay bit-identical by construction.
  Disassembly fuse_window(const sim::Trace& pview, const sim::Trace& eview,
                          const Disassembly& p, const Disassembly& e) const;
  /// One channel's scored results with the exact posterior: the group skip
  /// off.  A group one channel puts out of reach can still become the fused
  /// best group when the other channel outvotes it, so fusion recombines
  /// every group's within-group conditionals.
  static std::vector<Disassembly> exact_scored(const HierarchicalDisassembler& model,
                                               std::span<const sim::Trace> traces);
  /// Degrade to one surviving channel's result (other channel rejected).
  static Disassembly degrade_to(const Disassembly& survivor);

  std::shared_ptr<const HierarchicalDisassembler> power_;
  std::shared_ptr<const HierarchicalDisassembler> em_;
  LevelFusion group_;
  LevelFusion instruction_;
  std::unique_ptr<ml::Qda> group_head_;
  std::map<int, std::unique_ptr<ml::Qda>> instruction_heads_;
  GroupSupport support_;
};

}  // namespace sidis::core
