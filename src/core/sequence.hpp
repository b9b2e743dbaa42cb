// Sequence smoothing over recovered instruction streams -- the paper's
// stated future work ("this technique can be used with static code analysis
// in order to increase accuracy of real code", Sec. 6).
//
// Single-trace classification treats every instruction independently.  Real
// firmware is not a uniform draw over the ISA: compilers emit characteristic
// bigrams (CPI is followed by a branch, LDI pairs precede STS, a CP/CPC
// cascade implements wide compares...).  A first-order hidden-Markov view --
// per-window class log-posteriors from the classifier as emissions, a
// transition prior over instruction classes -- lets Viterbi decoding repair
// isolated misclassifications.
//
// Two priors are provided behind one interface:
//   * BigramPrior  -- transition counts estimated from representative
//                     firmware with Laplace smoothing (Eisenbarth et al. [9]).
//   * IsaPrior     -- a three-tier backoff blend: observed bigrams where the
//                     firmware corpus has evidence, Table-2 group structure
//                     as the middle tier, and ISA-derived structural
//                     plausibility (carry cascades, flag-use before
//                     branches, compiler idioms) as the floor -- replacing
//                     flat add-one smoothing with code-shaped mass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "avr/program.hpp"
#include "linalg/matrix.hpp"

namespace sidis::core {

/// Normalized log-probabilities: out[i] = s[i] - logsumexp(s).  Deterministic
/// (single max-shifted pass); exp(out) sums to 1 up to rounding.
linalg::Vector log_softmax(const linalg::Vector& s);

/// First-order transition model over instruction classes -- the contract the
/// Viterbi decoders consume.  Implementations must return finite values and
/// keep every row a proper distribution (sum_to exp(log_prob(from,to)) == 1).
class TransitionPrior {
 public:
  virtual ~TransitionPrior() = default;

  /// log P(to | from).
  virtual double log_prob(std::size_t from, std::size_t to) const = 0;

  /// Number of states (instruction classes).
  virtual std::size_t num_classes() const = 0;
};

/// First-order instruction-class transition model with add-one smoothing.
class BigramPrior : public TransitionPrior {
 public:
  /// `num_classes` states; counts start at `smoothing` (Laplace).
  explicit BigramPrior(std::size_t num_classes, double smoothing = 1.0);

  /// Accumulates transitions from a representative program's class sequence
  /// (instructions outside the profiled set are skipped).
  void add_program(const avr::Program& program);

  /// Accumulates one observed transition.
  void add_transition(std::size_t from, std::size_t to);

  /// log P(to | from) under the smoothed counts.
  double log_prob(std::size_t from, std::size_t to) const override;

  std::size_t num_classes() const override { return counts_.rows(); }

  /// Raw observed count (Laplace floor excluded) -- the evidence tier the
  /// IsaPrior blend recovers.
  double observed(std::size_t from, std::size_t to) const;

  /// Total observed transitions leaving `from` (Laplace floor excluded).
  double row_observed(std::size_t from) const;

  double smoothing() const { return smoothing_; }

 private:
  linalg::Matrix counts_;
  double smoothing_ = 1.0;
};

struct IsaPriorConfig {
  /// Blend weight of the firmware-observed bigram tier.  Rows with no
  /// observed transitions redistribute this weight to the remaining tiers.
  double observed_weight = 0.55;
  /// Blend weight of the Table-2 group-level backoff tier (observed counts
  /// aggregated per (group, group) pair, uniform within the target group).
  double group_weight = 0.25;
  /// Blend weight of the ISA structural tier.
  double isa_weight = 0.20;
  /// In the ISA tier, each structurally implausible successor receives
  /// `illegal_mass / num_classes` probability; the rest goes to plausible
  /// successors.  Must stay well below 1 so plausible transitions always
  /// dominate (strictly, within the ISA tier).
  double illegal_mass = 0.02;
};

/// ISA-structured transition prior over the full 112-class table.
///
/// Per row, three proper distributions are blended with per-row renormalized
/// weights:
///   observed tier -- raw bigram counts from a BigramPrior (skipped when the
///                    row carries no evidence);
///   group tier    -- the same counts aggregated over Table-2 groups with
///                    Laplace smoothing, spread uniformly within the target
///                    group (backoff: a CP->BRNE observation also lends mass
///                    to CP->BREQ);
///   ISA tier      -- structural plausibility from `src/avr`: carry
///                    consumers (ADC/SBC/SBCI/CPC/ROL/ROR) need a
///                    carry-writing predecessor, conditional branches need a
///                    predecessor that writes a flag they read, and
///                    control-flow instructions (jumps, branches, skips)
///                    impose nothing on their successor because the next
///                    window may be a branch target.  Implausible successors
///                    keep a small non-zero mass (this is a prior about
///                    compiler-emitted code, not a hard legality rule --
///                    flags do survive across unrelated instructions).
///
/// Within the ISA tier every plausible successor is strictly more probable
/// than every implausible one; in the default blend the same strict ordering
/// holds between successors sharing a target group and observation context.
class IsaPrior : public TransitionPrior {
 public:
  /// Structure-only prior (no firmware evidence: observed weight
  /// redistributes to the group + ISA tiers, the group tier falls back to
  /// its Laplace floor).
  explicit IsaPrior(IsaPriorConfig config = {});

  /// Blend with firmware-estimated bigram evidence.  `observed` must cover
  /// the full class table (num_classes() == avr::num_instruction_classes()).
  explicit IsaPrior(const BigramPrior& observed, IsaPriorConfig config = {});

  double log_prob(std::size_t from, std::size_t to) const override;
  std::size_t num_classes() const override { return log_probs_.rows(); }

  /// The ISA tier's structural judgment for a transition (exposed for the
  /// property tests).
  bool structurally_plausible(std::size_t from, std::size_t to) const;

  const IsaPriorConfig& config() const { return config_; }

 private:
  void build(const BigramPrior* observed);

  IsaPriorConfig config_;
  linalg::Matrix log_probs_;
  std::vector<std::uint8_t> plausible_;  ///< row-major n x n, 0/1
};

// -- basic-block recovery -----------------------------------------------
//
// A smoothed class stream segments into basic blocks at control-flow
// instructions, the same way the ground-truth program does; exact block
// matches measure whether sequence decoding recovers program *structure*,
// not just windows (extends the Sec-5.7 malware scenario to CFG level).

/// One recovered basic block: the window index of its first instruction and
/// the class sequence inside, terminator included.
struct BasicBlock {
  std::size_t begin = 0;
  std::vector<std::size_t> classes;

  friend bool operator==(const BasicBlock&, const BasicBlock&) = default;
};

/// True when the class may redirect control flow and therefore terminates a
/// basic block: group-4 jumps/branches, BRBS/BRBC, and the skip family
/// (CPSE/SBRC/SBRS/SBIC/SBIS).
bool ends_basic_block(std::size_t class_idx);

/// Cuts a class sequence after every block terminator.  The final block may
/// be terminator-less (stream ended mid-block).
std::vector<BasicBlock> segment_blocks(const std::vector<std::size_t>& classes);

/// Fraction of ground-truth blocks exactly recovered (same start window,
/// same class sequence).  Both streams must describe the same window
/// sequence; returns 1.0 when the truth stream has no blocks.
double block_recovery_rate(const std::vector<std::size_t>& decoded,
                           const std::vector<std::size_t>& truth);

}  // namespace sidis::core
