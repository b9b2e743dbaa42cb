#include "core/sequence.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "avr/grouping.hpp"
#include "avr/isa.hpp"

namespace sidis::core {

linalg::Vector log_softmax(const linalg::Vector& s) {
  linalg::Vector out(s.size());
  if (s.empty()) return out;
  double m = s[0];
  for (double v : s) m = std::max(m, v);
  double sum = 0.0;
  for (double v : s) sum += std::exp(v - m);
  const double lse = m + std::log(sum);
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i] - lse;
  return out;
}

BigramPrior::BigramPrior(std::size_t num_classes, double smoothing)
    : counts_(num_classes, num_classes, smoothing), smoothing_(smoothing) {
  if (num_classes == 0) throw std::invalid_argument("BigramPrior: no classes");
  if (!(smoothing > 0.0)) throw std::invalid_argument("BigramPrior: smoothing must be > 0");
}

void BigramPrior::add_program(const avr::Program& program) {
  // An index plus a flag rather than std::optional<std::size_t>: GCC 12
  // reports a false -Wmaybe-uninitialized on the optional's payload here.
  bool chained = false;
  std::size_t prev = 0;
  for (const avr::Instruction& in : program) {
    const auto cls = avr::class_of(in);
    if (!cls || *cls >= num_classes()) {
      chained = false;  // unprofiled instruction breaks the chain
      continue;
    }
    if (chained) add_transition(prev, *cls);
    prev = *cls;
    chained = true;
  }
}

void BigramPrior::add_transition(std::size_t from, std::size_t to) {
  counts_.at(from, to) += 1.0;
}

double BigramPrior::log_prob(std::size_t from, std::size_t to) const {
  double row = 0.0;
  for (std::size_t c = 0; c < counts_.cols(); ++c) row += counts_(from, c);
  return std::log(counts_.at(from, to) / row);
}

double BigramPrior::observed(std::size_t from, std::size_t to) const {
  return counts_.at(from, to) - smoothing_;
}

double BigramPrior::row_observed(std::size_t from) const {
  double total = 0.0;
  for (std::size_t c = 0; c < counts_.cols(); ++c) {
    total += counts_.at(from, c) - smoothing_;
  }
  return total;
}

namespace {

using avr::Mnemonic;

/// SREG flags a mnemonic writes, as a bitmask over avr::SregBit.  This is a
/// class-level summary: BSET/BCLR carry their flag in an operand, so they
/// conservatively count as writing any flag.
std::uint8_t flags_written(Mnemonic m) {
  constexpr std::uint8_t kArith =  // C Z N V S H
      (1u << avr::kFlagC) | (1u << avr::kFlagZ) | (1u << avr::kFlagN) |
      (1u << avr::kFlagV) | (1u << avr::kFlagS) | (1u << avr::kFlagH);
  constexpr std::uint8_t kShift =  // C Z N V S
      (1u << avr::kFlagC) | (1u << avr::kFlagZ) | (1u << avr::kFlagN) |
      (1u << avr::kFlagV) | (1u << avr::kFlagS);
  constexpr std::uint8_t kLogic =  // Z N V S
      (1u << avr::kFlagZ) | (1u << avr::kFlagN) | (1u << avr::kFlagV) |
      (1u << avr::kFlagS);
  switch (m) {
    case Mnemonic::kAdd: case Mnemonic::kAdc: case Mnemonic::kSub:
    case Mnemonic::kSbc: case Mnemonic::kSubi: case Mnemonic::kSbci:
    case Mnemonic::kCp: case Mnemonic::kCpc: case Mnemonic::kCpi:
    case Mnemonic::kNeg:
      return kArith;
    case Mnemonic::kLsl: case Mnemonic::kRol:
      return kArith;  // shift-through-add forms also touch H
    case Mnemonic::kAdiw: case Mnemonic::kSbiw:
    case Mnemonic::kCom:
    case Mnemonic::kLsr: case Mnemonic::kRor: case Mnemonic::kAsr:
      return kShift;
    case Mnemonic::kAnd: case Mnemonic::kAndi: case Mnemonic::kOr:
    case Mnemonic::kOri: case Mnemonic::kEor: case Mnemonic::kTst:
    case Mnemonic::kClr: case Mnemonic::kSbr: case Mnemonic::kCbr:
    case Mnemonic::kInc: case Mnemonic::kDec:
      return kLogic;
    case Mnemonic::kBst:
      return 1u << avr::kFlagT;
    case Mnemonic::kBset: case Mnemonic::kBclr:
      return 0xFFu;
    default: {
      std::uint8_t s = 0;
      if (avr::is_flag_shorthand(m, &s)) return static_cast<std::uint8_t>(1u << s);
      return 0;
    }
  }
}

/// Flags a conditional branch reads (0 for everything else).  BRBS/BRBC
/// carry the flag in an operand, so at class level they read any flag.
std::uint8_t flags_branched_on(Mnemonic m) {
  std::uint8_t s = 0;
  if (avr::is_branch_shorthand(m, &s)) return static_cast<std::uint8_t>(1u << s);
  if (m == Mnemonic::kBrbs || m == Mnemonic::kBrbc) return 0xFFu;
  return 0;
}

bool consumes_carry(Mnemonic m) {
  switch (m) {
    case Mnemonic::kAdc: case Mnemonic::kSbc: case Mnemonic::kSbci:
    case Mnemonic::kCpc: case Mnemonic::kRol: case Mnemonic::kRor:
      return true;
    default:
      return false;
  }
}

bool is_skip(Mnemonic m) {
  switch (m) {
    case Mnemonic::kCpse: case Mnemonic::kSbrc: case Mnemonic::kSbrs:
    case Mnemonic::kSbic: case Mnemonic::kSbis:
      return true;
    default:
      return false;
  }
}

/// Control transfer: the window after this one may be a branch target, so
/// the prior imposes no structural constraint across the edge.
bool redirects_control(Mnemonic m) {
  if (avr::info(m).group == 4) return true;  // RJMP/JMP + branch shorthands
  if (m == Mnemonic::kBrbs || m == Mnemonic::kBrbc) return true;
  return is_skip(m);
}

/// Compiler-idiom multiplier within the plausible set.
double idiom_multiplier(Mnemonic from, Mnemonic to, double boost) {
  // Multi-byte arithmetic / wide-compare cascades.
  if ((from == Mnemonic::kCp || from == Mnemonic::kCpc) && to == Mnemonic::kCpc)
    return boost;
  if ((from == Mnemonic::kAdd || from == Mnemonic::kAdc) && to == Mnemonic::kAdc)
    return boost;
  if ((from == Mnemonic::kSub || from == Mnemonic::kSbc) && to == Mnemonic::kSbc)
    return boost;
  if ((from == Mnemonic::kSubi || from == Mnemonic::kSbci) && to == Mnemonic::kSbci)
    return boost;
  // Compare, then branch on the result.
  if ((from == Mnemonic::kCp || from == Mnemonic::kCpc ||
       from == Mnemonic::kCpi || from == Mnemonic::kTst) &&
      flags_branched_on(to) != 0)
    return boost;
  // LDI pairs and immediate-then-store.
  if (from == Mnemonic::kLdi &&
      (to == Mnemonic::kLdi || to == Mnemonic::kSts || to == Mnemonic::kSt ||
       to == Mnemonic::kStd))
    return boost;
  // Skip shadow: SBRS/SBRC guarding a one-word jump.
  if (is_skip(from) && to == Mnemonic::kRjmp) return boost;
  return 1.0;
}

}  // namespace

IsaPrior::IsaPrior(IsaPriorConfig config) : config_(config) { build(nullptr); }

IsaPrior::IsaPrior(const BigramPrior& observed, IsaPriorConfig config)
    : config_(config) {
  build(&observed);
}

void IsaPrior::build(const BigramPrior* observed) {
  const auto& classes = avr::instruction_classes();
  const std::size_t n = classes.size();
  if (observed && observed->num_classes() != n) {
    throw std::invalid_argument(
        "IsaPrior: observed prior must cover the full class table");
  }
  if (!(config_.illegal_mass > 0.0) || config_.illegal_mass >= 1.0) {
    throw std::invalid_argument("IsaPrior: illegal_mass must be in (0, 1)");
  }
  if (!(config_.isa_weight > 0.0)) {
    throw std::invalid_argument("IsaPrior: isa_weight must be > 0");
  }

  log_probs_ = linalg::Matrix(n, n);
  plausible_.assign(n * n, 1);

  // Per-class structural summaries.
  std::vector<Mnemonic> mn(n);
  std::vector<int> group(n);
  std::vector<std::size_t> group_size(n);
  for (std::size_t c = 0; c < n; ++c) {
    mn[c] = classes[c].mnemonic;
    group[c] = classes[c].group;
    group_size[c] = avr::classes_in_group(classes[c].group).size();
  }

  // Group-level backoff counts with a Laplace floor per (group, group) pair.
  double gcounts[9][9] = {};
  for (int a = 1; a <= 8; ++a) {
    for (int b = 1; b <= 8; ++b) gcounts[a][b] = 1.0;
  }
  if (observed) {
    for (std::size_t f = 0; f < n; ++f) {
      for (std::size_t t = 0; t < n; ++t) {
        gcounts[group[f]][group[t]] += observed->observed(f, t);
      }
    }
  }

  linalg::Vector p_isa(n), p_grp(n), p_obs(n);
  for (std::size_t f = 0; f < n; ++f) {
    const std::uint8_t written = flags_written(mn[f]);
    const bool free_edge = redirects_control(mn[f]);

    // ISA structural tier.
    std::size_t implausible = 0;
    for (std::size_t t = 0; t < n; ++t) {
      bool ok = true;
      if (!free_edge) {
        if (consumes_carry(mn[t]) && !(written & (1u << avr::kFlagC))) ok = false;
        const std::uint8_t read = flags_branched_on(mn[t]);
        if (read != 0 && !(written & read)) ok = false;
      }
      plausible_[f * n + t] = ok ? 1 : 0;
      if (!ok) ++implausible;
    }
    const double eps = config_.illegal_mass / static_cast<double>(n);
    double weight_sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      if (plausible_[f * n + t]) {
        weight_sum += idiom_multiplier(mn[f], mn[t], config_.idiom_boost);
      }
    }
    const double legal_mass = 1.0 - eps * static_cast<double>(implausible);
    double isa_sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      p_isa[t] = plausible_[f * n + t]
                     ? legal_mass *
                           idiom_multiplier(mn[f], mn[t], config_.idiom_boost) /
                           weight_sum
                     : eps;
      isa_sum += p_isa[t];
    }
    for (std::size_t t = 0; t < n; ++t) p_isa[t] /= isa_sum;

    // Group backoff tier: group-transition probability spread uniformly
    // within the target group.
    double grow = 0.0;
    for (int b = 1; b <= 8; ++b) grow += gcounts[group[f]][b];
    double grp_sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      p_grp[t] = gcounts[group[f]][group[t]] / grow /
                 static_cast<double>(group_size[t]);
      grp_sum += p_grp[t];
    }
    for (std::size_t t = 0; t < n; ++t) p_grp[t] /= grp_sum;

    // Observed tier (only where the corpus left evidence in this row).
    const double row_total = observed ? observed->row_observed(f) : 0.0;
    const bool has_obs = row_total > 0.0;
    if (has_obs) {
      for (std::size_t t = 0; t < n; ++t) {
        p_obs[t] = observed->observed(f, t) / row_total;
      }
    }

    // Per-row renormalized blend over the available tiers.
    const double w_obs = has_obs ? config_.observed_weight : 0.0;
    const double w_all = w_obs + config_.group_weight + config_.isa_weight;
    double blend_sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      double p = (config_.group_weight * p_grp[t] +
                  config_.isa_weight * p_isa[t]) /
                 w_all;
      if (has_obs) p += w_obs * p_obs[t] / w_all;
      log_probs_(f, t) = p;
      blend_sum += p;
    }
    for (std::size_t t = 0; t < n; ++t) {
      log_probs_(f, t) = std::log(log_probs_(f, t) / blend_sum);
    }
  }
}

double IsaPrior::log_prob(std::size_t from, std::size_t to) const {
  return log_probs_.at(from, to);
}

bool IsaPrior::structurally_plausible(std::size_t from, std::size_t to) const {
  const std::size_t n = log_probs_.rows();
  if (from >= n || to >= n) throw std::out_of_range("IsaPrior: class index");
  return plausible_[from * n + to] != 0;
}

bool ends_basic_block(std::size_t class_idx) {
  const auto& classes = avr::instruction_classes();
  if (class_idx >= classes.size()) throw std::out_of_range("ends_basic_block");
  return redirects_control(classes[class_idx].mnemonic);
}

std::vector<BasicBlock> segment_blocks(const std::vector<std::size_t>& classes) {
  std::vector<BasicBlock> blocks;
  BasicBlock current;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (current.classes.empty()) current.begin = i;
    current.classes.push_back(classes[i]);
    if (ends_basic_block(classes[i])) {
      blocks.push_back(std::move(current));
      current = {};
    }
  }
  if (!current.classes.empty()) blocks.push_back(std::move(current));
  return blocks;
}

double block_recovery_rate(const std::vector<std::size_t>& decoded,
                           const std::vector<std::size_t>& truth) {
  if (decoded.size() != truth.size()) {
    throw std::invalid_argument("block_recovery_rate: length mismatch");
  }
  const std::vector<BasicBlock> truth_blocks = segment_blocks(truth);
  if (truth_blocks.empty()) return 1.0;
  const std::vector<BasicBlock> decoded_blocks = segment_blocks(decoded);
  std::unordered_map<std::size_t, const BasicBlock*> by_begin;
  for (const BasicBlock& b : decoded_blocks) by_begin.emplace(b.begin, &b);
  std::size_t matched = 0;
  for (const BasicBlock& b : truth_blocks) {
    const auto it = by_begin.find(b.begin);
    if (it != by_begin.end() && *it->second == b) ++matched;
  }
  return static_cast<double>(matched) / static_cast<double>(truth_blocks.size());
}

}  // namespace sidis::core
