// Tests for the bigram prior and Viterbi sequence smoothing extension, the
// ISA-derived transition prior, and the streaming sequence-decoding battery:
// Viterbi vs brute force, bounded-lag vs offline, bit-identical smoothed
// verdicts across worker and shard counts, the lane kernels vs a scalar
// reference at ISA scale, and the malformed-row and allocation-free push
// contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "avr/assembler.hpp"
#include "avr/grouping.hpp"
#include "core/csa.hpp"
#include "core/hierarchical.hpp"
#include "core/profiler.hpp"
#include "core/sequence.hpp"
#include "runtime/decoder.hpp"
#include "runtime/fleet.hpp"
#include "sim/acquisition.hpp"

// Counts this thread's heap allocations, so a test can pin a code path as
// allocation-free.  Replacing the global allocation functions is the only
// portable hook.  Every non-aligned variant is replaced and funnels through
// malloc/free, so no block crosses between these and a sanitizer's own
// operator new/delete (the aligned variants stay the runtime's, in pairs).
namespace {
thread_local std::size_t t_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_malloc_or_throw(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

// GCC flags free() in a replacement operator delete once inlined next to a
// new-expression; here the pairing is malloc/free by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return counted_malloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_malloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sidis::core {
namespace {

/// Viterbi decoding of a window sequence -- the dense offline oracle the
/// runtime decoder is checked against.
///
/// `emissions` holds one row per window; entry (t, c) is the classifier's
/// log-posterior (or any log-score) of class c for window t.  Returns the
/// maximum-a-posteriori class index sequence under the transition prior,
/// weighting the prior by `prior_weight` (0 = pure per-window argmax).
std::vector<std::size_t> viterbi_decode(const linalg::Matrix& emissions,
                                        const TransitionPrior& prior,
                                        double prior_weight = 1.0) {
  const std::size_t t_max = emissions.rows();
  const std::size_t n = emissions.cols();
  if (t_max == 0) return {};
  if (n != prior.num_classes()) {
    throw std::invalid_argument("viterbi_decode: class-count mismatch");
  }

  // Precompute the weighted log-transition matrix once.
  linalg::Matrix log_trans(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      log_trans(a, b) = prior_weight * prior.log_prob(a, b);
    }
  }

  linalg::Matrix score(t_max, n);
  std::vector<std::vector<std::size_t>> back(t_max, std::vector<std::size_t>(n, 0));
  for (std::size_t c = 0; c < n; ++c) score(0, c) = emissions(0, c);

  for (std::size_t t = 1; t < t_max; ++t) {
    for (std::size_t c = 0; c < n; ++c) {
      double best = -1e300;
      std::size_t best_prev = 0;
      for (std::size_t p = 0; p < n; ++p) {
        const double v = score(t - 1, p) + log_trans(p, c);
        if (v > best) {
          best = v;
          best_prev = p;
        }
      }
      score(t, c) = best + emissions(t, c);
      back[t][c] = best_prev;
    }
  }

  std::vector<std::size_t> path(t_max);
  std::size_t best_end = 0;
  for (std::size_t c = 1; c < n; ++c) {
    if (score(t_max - 1, c) > score(t_max - 1, best_end)) best_end = c;
  }
  path[t_max - 1] = best_end;
  for (std::size_t t = t_max - 1; t > 0; --t) path[t - 1] = back[t][path[t]];
  return path;
}

TEST(BigramPrior, LaplaceSmoothingGivesUniformStart) {
  const BigramPrior prior(4);
  // No observations: every transition equally likely.
  EXPECT_NEAR(prior.log_prob(0, 1), std::log(0.25), 1e-12);
  EXPECT_NEAR(prior.log_prob(2, 2), std::log(0.25), 1e-12);
}

TEST(BigramPrior, ObservationsShiftTheDistribution) {
  BigramPrior prior(3);
  for (int i = 0; i < 10; ++i) prior.add_transition(0, 1);
  EXPECT_GT(prior.log_prob(0, 1), prior.log_prob(0, 2));
  // Other rows untouched.
  EXPECT_NEAR(prior.log_prob(1, 0), std::log(1.0 / 3.0), 1e-12);
}

TEST(BigramPrior, AddProgramCountsProfiledTransitions) {
  BigramPrior prior(avr::num_instruction_classes());
  const avr::Program p = avr::assemble("LDI r16, 1\nADD r0, r16\nADD r0, r16").program;
  prior.add_program(p);
  const std::size_t ldi = *avr::class_index(avr::Mnemonic::kLdi);
  const std::size_t add = *avr::class_index(avr::Mnemonic::kAdd);
  EXPECT_GT(prior.log_prob(ldi, add), prior.log_prob(ldi, ldi));
  EXPECT_GT(prior.log_prob(add, add), prior.log_prob(add, ldi));
}

TEST(BigramPrior, UnprofiledInstructionsBreakTheChain) {
  BigramPrior prior(avr::num_instruction_classes());
  // LDI -> NOP -> ADD: the NOP is unprofiled, so no LDI->ADD transition.
  const avr::Program p = avr::assemble("LDI r16, 1\nNOP\nADD r0, r16").program;
  prior.add_program(p);
  const std::size_t ldi = *avr::class_index(avr::Mnemonic::kLdi);
  const std::size_t add = *avr::class_index(avr::Mnemonic::kAdd);
  EXPECT_NEAR(prior.log_prob(ldi, add),
              std::log(1.0 / static_cast<double>(avr::num_instruction_classes())), 1e-9);
}

TEST(BigramPrior, InvalidConstruction) {
  EXPECT_THROW(BigramPrior(0), std::invalid_argument);
  EXPECT_THROW(BigramPrior(3, 0.0), std::invalid_argument);
}

TEST(Viterbi, ZeroWeightReducesToArgmax) {
  // 3 windows, 2 classes.
  linalg::Matrix em{{-1.0, -2.0}, {-3.0, -0.5}, {-0.2, -4.0}};
  BigramPrior prior(2);
  const auto path = viterbi_decode(em, prior, 0.0);
  EXPECT_EQ(path, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(Viterbi, PriorRepairsIsolatedError) {
  // The true sequence is 0,0,0 but the middle window's emission slightly
  // prefers class 1.  A prior that has only ever seen 0->0 fixes it.
  linalg::Matrix em{{-0.1, -3.0}, {-1.2, -1.0}, {-0.1, -3.0}};
  BigramPrior prior(2, 0.1);
  for (int i = 0; i < 50; ++i) prior.add_transition(0, 0);
  const auto smoothed = viterbi_decode(em, prior, 1.0);
  EXPECT_EQ(smoothed, (std::vector<std::size_t>{0, 0, 0}));
  // Without the prior the error stays.
  const auto raw = viterbi_decode(em, prior, 0.0);
  EXPECT_EQ(raw[1], 1u);
}

TEST(Viterbi, StrongEmissionsOverrideThePrior) {
  linalg::Matrix em{{-0.1, -30.0}, {-30.0, -0.1}};
  BigramPrior prior(2, 0.1);
  for (int i = 0; i < 100; ++i) prior.add_transition(0, 0);
  const auto path = viterbi_decode(em, prior, 1.0);
  EXPECT_EQ(path, (std::vector<std::size_t>{0, 1}));
}

TEST(Viterbi, EmptyAndMismatchedInputs) {
  const BigramPrior prior(3);
  EXPECT_TRUE(viterbi_decode(linalg::Matrix{}, prior).empty());
  linalg::Matrix wrong(2, 2, 0.0);
  EXPECT_THROW(viterbi_decode(wrong, prior), std::invalid_argument);
}

// -- decode equivalence: dynamic programming vs exhaustive search ------------

double path_score(const linalg::Matrix& emissions, const TransitionPrior& prior,
                  const std::vector<std::size_t>& path) {
  double score = 0.0;
  for (std::size_t t = 0; t < path.size(); ++t) {
    score += emissions(t, path[t]);
    if (t > 0) score += prior.log_prob(path[t - 1], path[t]);
  }
  return score;
}

TEST(DecodeEquivalence, ViterbiMatchesBruteForceEnumeration) {
  // Continuous random emissions make ties measure-zero, so the optimum is
  // unique and the paths must agree exactly, trial after trial.
  std::mt19937_64 rng{20260806};
  std::uniform_real_distribution<double> em(-6.0, 0.0);
  std::uniform_int_distribution<int> cnt(0, 6);
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 4;          // 2..5
    const std::size_t len = 2 + (static_cast<std::size_t>(trial) / 4) % 5;  // 2..6
    linalg::Matrix emissions(len, n);
    for (std::size_t t = 0; t < len; ++t) {
      for (std::size_t c = 0; c < n; ++c) emissions(t, c) = em(rng);
    }
    BigramPrior prior(n, 0.5);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        const int reps = cnt(rng);
        for (int k = 0; k < reps; ++k) prior.add_transition(a, b);
      }
    }

    const std::vector<std::size_t> fast = viterbi_decode(emissions, prior, 1.0);

    std::vector<std::size_t> best;
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t total = 1;
    for (std::size_t t = 0; t < len; ++t) total *= n;
    for (std::size_t code = 0; code < total; ++code) {
      std::size_t x = code;
      std::vector<std::size_t> path(len);
      for (std::size_t t = 0; t < len; ++t) {
        path[t] = x % n;
        x /= n;
      }
      const double score = path_score(emissions, prior, path);
      if (score > best_score) {
        best_score = score;
        best = path;
      }
    }
    EXPECT_EQ(fast, best) << "trial " << trial;
    EXPECT_NEAR(path_score(emissions, prior, fast), best_score, 1e-9);
  }
}

// -- IsaPrior properties -----------------------------------------------------

TEST(IsaPriorProps, RowsAreProperDistributions) {
  const std::size_t n = avr::num_instruction_classes();
  BigramPrior evidence(n);
  const avr::Program p =
      avr::assemble("LDI r16, 1\nADD r0, r16\nADC r1, r16\nCP r0, r16").program;
  evidence.add_program(p);
  const IsaPrior structural;
  const IsaPrior blended(evidence);
  for (const IsaPrior* prior : {&structural, &blended}) {
    for (std::size_t from = 0; from < n; ++from) {
      double sum = 0.0;
      for (std::size_t to = 0; to < n; ++to) {
        const double lp = prior->log_prob(from, to);
        ASSERT_TRUE(std::isfinite(lp)) << from << "->" << to;
        sum += std::exp(lp);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << from;
    }
  }
  // BigramPrior rows are proper too (the TransitionPrior contract).
  BigramPrior bare(5);
  bare.add_transition(0, 1);
  for (std::size_t from = 0; from < 5; ++from) {
    double sum = 0.0;
    for (std::size_t to = 0; to < 5; ++to) sum += std::exp(bare.log_prob(from, to));
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(IsaPriorProps, PureIsaTierOrdersPlausibleAboveImplausible) {
  // The global strict ordering is an ISA-tier property; silence the evidence
  // and group tiers so it is testable across every row at once.
  IsaPriorConfig cfg;
  cfg.observed_weight = 0.0;
  cfg.group_weight = 0.0;
  cfg.isa_weight = 1.0;
  const IsaPrior prior(cfg);
  const std::size_t n = prior.num_classes();
  for (std::size_t from = 0; from < n; ++from) {
    double min_plausible = std::numeric_limits<double>::infinity();
    double max_implausible = -std::numeric_limits<double>::infinity();
    bool any_plausible = false, any_implausible = false;
    for (std::size_t to = 0; to < n; ++to) {
      const double lp = prior.log_prob(from, to);
      if (prior.structurally_plausible(from, to)) {
        any_plausible = true;
        min_plausible = std::min(min_plausible, lp);
      } else {
        any_implausible = true;
        max_implausible = std::max(max_implausible, lp);
      }
    }
    ASSERT_TRUE(any_plausible) << "row " << from << " has no plausible successor";
    if (any_implausible) {
      EXPECT_GT(min_plausible, max_implausible) << "row " << from;
    }
  }
}

TEST(IsaPriorProps, StructuralJudgmentsMatchTheIsa) {
  const IsaPrior prior;
  const auto cls = [](avr::Mnemonic m) { return *avr::class_index(m); };
  // Carry cascade: ADD writes C, so ADC may follow; AND never writes C.
  EXPECT_TRUE(prior.structurally_plausible(cls(avr::Mnemonic::kAdd),
                                           cls(avr::Mnemonic::kAdc)));
  EXPECT_FALSE(prior.structurally_plausible(cls(avr::Mnemonic::kAnd),
                                            cls(avr::Mnemonic::kAdc)));
  // Branches need a predecessor writing the flag they read: CP writes Z for
  // BREQ; LDI writes no flags at all.
  EXPECT_TRUE(prior.structurally_plausible(cls(avr::Mnemonic::kCp),
                                           cls(avr::Mnemonic::kBreq)));
  EXPECT_FALSE(prior.structurally_plausible(cls(avr::Mnemonic::kLdi),
                                            cls(avr::Mnemonic::kBreq)));
  // BST writes T, BRTS reads it.
  EXPECT_TRUE(prior.structurally_plausible(cls(avr::Mnemonic::kBst),
                                           cls(avr::Mnemonic::kBrts)));
  // Control flow imposes nothing on its successor (the next window may be
  // any branch target) -- even a carry consumer is fine after RJMP.
  EXPECT_TRUE(prior.structurally_plausible(cls(avr::Mnemonic::kRjmp),
                                           cls(avr::Mnemonic::kAdc)));
  EXPECT_TRUE(prior.structurally_plausible(cls(avr::Mnemonic::kSbrc),
                                           cls(avr::Mnemonic::kBreq)));
  // SEC explicitly sets carry.
  EXPECT_TRUE(prior.structurally_plausible(cls(avr::Mnemonic::kSec),
                                           cls(avr::Mnemonic::kAdc)));
}

TEST(IsaPriorProps, EvidenceBoostsObservedTransitions) {
  const auto add = *avr::class_index(avr::Mnemonic::kAdd);
  const auto adc = *avr::class_index(avr::Mnemonic::kAdc);
  BigramPrior evidence(avr::num_instruction_classes());
  for (int i = 0; i < 50; ++i) evidence.add_transition(add, adc);
  const IsaPrior structural;
  const IsaPrior blended(evidence);
  EXPECT_GT(blended.log_prob(add, adc), structural.log_prob(add, adc));
}

TEST(IsaPriorProps, GroupBackoffLendsMassWithinTheTargetGroup) {
  // Only CP -> BRNE is ever observed, but the group tier aggregates it as
  // (group 1, group 4) evidence, so the unobserved CP -> BREQ still ends up
  // far above an unobserved cross-group successor like CP -> LDS.
  const auto cp = *avr::class_index(avr::Mnemonic::kCp);
  const auto brne = *avr::class_index(avr::Mnemonic::kBrne);
  const auto breq = *avr::class_index(avr::Mnemonic::kBreq);
  const auto lds = *avr::class_index(avr::Mnemonic::kLds, avr::AddrMode::kAbs);
  BigramPrior evidence(avr::num_instruction_classes());
  for (int i = 0; i < 50; ++i) evidence.add_transition(cp, brne);
  const IsaPrior blended(evidence);
  EXPECT_GT(blended.log_prob(cp, breq), blended.log_prob(cp, lds));
  EXPECT_GT(blended.log_prob(cp, brne), blended.log_prob(cp, breq));
}

TEST(IsaPriorProps, InvalidConfigurations) {
  EXPECT_THROW(IsaPrior(BigramPrior(3)), std::invalid_argument);  // wrong size
  IsaPriorConfig bad_mass;
  bad_mass.illegal_mass = 1.0;
  EXPECT_THROW(IsaPrior{bad_mass}, std::invalid_argument);
  IsaPriorConfig no_isa;
  no_isa.isa_weight = 0.0;
  EXPECT_THROW(IsaPrior{no_isa}, std::invalid_argument);
}

// -- basic-block recovery ----------------------------------------------------

TEST(BasicBlocks, TerminatorsFollowControlFlowClasses) {
  const auto cls = [](avr::Mnemonic m) { return *avr::class_index(m); };
  EXPECT_TRUE(ends_basic_block(cls(avr::Mnemonic::kRjmp)));
  EXPECT_TRUE(ends_basic_block(cls(avr::Mnemonic::kBreq)));
  EXPECT_TRUE(ends_basic_block(cls(avr::Mnemonic::kBrbs)));
  EXPECT_TRUE(ends_basic_block(cls(avr::Mnemonic::kSbrc)));
  EXPECT_TRUE(ends_basic_block(cls(avr::Mnemonic::kCpse)));
  EXPECT_FALSE(ends_basic_block(cls(avr::Mnemonic::kAdd)));
  EXPECT_FALSE(ends_basic_block(cls(avr::Mnemonic::kLdi)));
  EXPECT_THROW(ends_basic_block(avr::num_instruction_classes()), std::out_of_range);
}

TEST(BasicBlocks, SegmentsAfterEveryTerminator) {
  const auto cls = [](avr::Mnemonic m) { return *avr::class_index(m); };
  const std::vector<std::size_t> stream = {
      cls(avr::Mnemonic::kAdd),  cls(avr::Mnemonic::kRjmp),
      cls(avr::Mnemonic::kLdi),  cls(avr::Mnemonic::kSub),
      cls(avr::Mnemonic::kBreq), cls(avr::Mnemonic::kCom)};
  const std::vector<BasicBlock> blocks = segment_blocks(stream);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].begin, 0u);
  EXPECT_EQ(blocks[0].classes.size(), 2u);
  EXPECT_EQ(blocks[1].begin, 2u);
  EXPECT_EQ(blocks[1].classes.size(), 3u);
  EXPECT_EQ(blocks[2].begin, 5u);  // terminator-less tail block
  EXPECT_EQ(blocks[2].classes.size(), 1u);
  EXPECT_TRUE(segment_blocks({}).empty());
}

TEST(BasicBlocks, RecoveryRateCountsExactBlockMatches) {
  const auto cls = [](avr::Mnemonic m) { return *avr::class_index(m); };
  const std::vector<std::size_t> truth = {
      cls(avr::Mnemonic::kAdd),  cls(avr::Mnemonic::kRjmp),
      cls(avr::Mnemonic::kLdi),  cls(avr::Mnemonic::kSub),
      cls(avr::Mnemonic::kBreq), cls(avr::Mnemonic::kCom)};
  EXPECT_EQ(block_recovery_rate(truth, truth), 1.0);
  // One wrong window inside the middle block kills exactly that block.
  std::vector<std::size_t> decoded = truth;
  decoded[3] = cls(avr::Mnemonic::kAdc);
  EXPECT_NEAR(block_recovery_rate(decoded, truth), 2.0 / 3.0, 1e-12);
  // A terminator misread as a non-terminator merges two blocks: both lost.
  decoded = truth;
  decoded[1] = cls(avr::Mnemonic::kAdd);
  EXPECT_NEAR(block_recovery_rate(decoded, truth), 1.0 / 3.0, 1e-12);
  EXPECT_THROW(block_recovery_rate({0}, truth), std::invalid_argument);
  EXPECT_EQ(block_recovery_rate({}, {}), 1.0);
}

}  // namespace
}  // namespace sidis::core

// -- runtime battery: bounded-lag decoder, scored paths, invariance ----------

namespace sidis::runtime {

/// Read access to a SequenceDecoder's lattice, front (oldest window) first.
class SequenceDecoderProbe {
 public:
  static std::size_t depth(const SequenceDecoder& d) { return d.lattice_.size(); }
  static const linalg::Vector& delta(const SequenceDecoder& d, std::size_t t) {
    return d.lattice_[t].delta;
  }
  static const std::vector<std::size_t>& backptr(const SequenceDecoder& d, std::size_t t) {
    return d.lattice_[t].backptr;
  }
  static const std::vector<std::size_t>& support(const SequenceDecoder& d, std::size_t t) {
    return d.lattice_[t].support;
  }
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Synthetic posterior-carrying window over a class support.
core::Disassembly make_window(const linalg::Vector& log_posterior,
                              const std::vector<std::size_t>& support) {
  core::Disassembly w;
  std::size_t best = 0;
  for (std::size_t i = 1; i < log_posterior.size(); ++i) {
    if (log_posterior[i] > log_posterior[best]) best = i;
  }
  w.class_idx = support[best];
  w.group = avr::group_of_class(w.class_idx);
  w.log_posterior = log_posterior;
  return w;
}

/// The decoder's recursions as plain per-destination scalar loops over all
/// n x n state pairs: a verbatim copy of the scalar implementation the lane
/// kernels replaced, kept as the dense bit-identity reference (it never
/// prunes a state).  Decides only (state, converged, confidence); every
/// input row must carry a finite entry and no NaN.
class ScalarReferenceDecoder {
 public:
  struct Decision {
    std::size_t state = 0;
    bool converged = true;
    double confidence = kInf;
  };

  struct Node {
    linalg::Vector emissions;
    linalg::Vector delta;
    std::vector<std::size_t> backptr;
  };

  ScalarReferenceDecoder(std::size_t n, const core::TransitionPrior& prior,
                         SequenceDecoderConfig config)
      : n_(n), config_(config), log_trans_(n, n) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        log_trans_(a, b) = config_.prior_weight * prior.log_prob(a, b);
      }
    }
  }

  void push(const linalg::Vector& emissions) {
    Node node;
    node.emissions = emissions;
    advance(node, lattice_.empty() ? nullptr : &lattice_.back());
    lattice_.push_back(std::move(node));
    if (lattice_.size() > config_.lag) commit_front();
  }

  std::vector<Decision> flush() {
    const std::size_t n = n_;
    if (!lattice_.empty()) {
      const std::size_t depth = lattice_.size();
      std::vector<std::size_t> path(depth);
      std::size_t s = argmax_first(lattice_.back().delta);
      path[depth - 1] = s;
      for (std::size_t t = depth - 1; t > 0; --t) {
        s = lattice_[t].backptr[s];
        path[t - 1] = s;
      }
      std::vector<linalg::Vector> beta(depth);
      beta[depth - 1].assign(n, 0.0);
      for (std::size_t t = depth - 1; t > 0; --t) {
        const Node& next = lattice_[t];
        beta[t - 1].assign(n, -kInf);
        for (std::size_t c = 0; c < n; ++c) {
          double best = -kInf;
          for (std::size_t c2 = 0; c2 < n; ++c2) {
            const double v = log_trans_(c, c2) + next.emissions[c2] + beta[t][c2];
            if (v > best) best = v;
          }
          beta[t - 1][c] = best;
        }
      }
      for (std::size_t t = 0; t < depth; ++t) {
        double confidence = kInf;
        if (n > 1) {
          double committed = -kInf, runner = -kInf;
          for (std::size_t c = 0; c < n; ++c) {
            const double mm = lattice_[t].delta[c] + beta[t][c];
            if (c == path[t]) {
              committed = mm;
            } else {
              runner = std::max(runner, mm);
            }
          }
          confidence = runner == -kInf ? kInf : committed - runner;
        }
        out_.push_back({path[t], true, confidence});
      }
      lattice_.clear();
    }
    last_committed_.reset();
    return std::move(out_);
  }

  /// The live lattice, front (oldest window) first.
  const std::deque<Node>& lattice() const { return lattice_; }

 private:
  static std::size_t argmax_first(const linalg::Vector& v) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i] > v[best]) best = i;
    }
    return best;
  }

  static void normalize_shift(linalg::Vector& v) {
    const double m = v[argmax_first(v)];
    if (!std::isfinite(m)) return;
    for (double& x : v) x -= m;
  }

  void advance(Node& node, const Node* prev) const {
    const std::size_t n = n_;
    node.delta.resize(n);
    if (prev == nullptr) {
      node.backptr.clear();
      if (last_committed_.has_value()) {
        for (std::size_t c = 0; c < n; ++c) {
          node.delta[c] = log_trans_(*last_committed_, c) + node.emissions[c];
        }
      } else {
        node.delta = node.emissions;
      }
      normalize_shift(node.delta);
      return;
    }
    node.backptr.assign(n, 0);
    for (std::size_t c = 0; c < n; ++c) {
      double best = -kInf;
      std::size_t bp = 0;
      for (std::size_t p = 0; p < n; ++p) {
        const double v = prev->delta[p] + log_trans_(p, c);
        if (v > best) {
          best = v;
          bp = p;
        }
      }
      node.delta[c] = best + node.emissions[c];
      node.backptr[c] = bp;
    }
    normalize_shift(node.delta);
  }

  void commit_front() {
    const std::size_t n = n_;
    const std::size_t depth = lattice_.size();
    std::size_t s = argmax_first(lattice_.back().delta);
    for (std::size_t t = depth - 1; t > 0; --t) s = lattice_[t].backptr[s];
    const std::size_t s0 = s;

    double confidence = kInf;
    if (n > 1) {
      linalg::Vector beta(n, 0.0);
      linalg::Vector prev_beta(n);
      for (std::size_t t = depth - 1; t > 0; --t) {
        const Node& next = lattice_[t];
        for (std::size_t c = 0; c < n; ++c) {
          double best = -kInf;
          for (std::size_t c2 = 0; c2 < n; ++c2) {
            const double v = log_trans_(c, c2) + next.emissions[c2] + beta[c2];
            if (v > best) best = v;
          }
          prev_beta[c] = best;
        }
        beta.swap(prev_beta);
      }
      const linalg::Vector& delta = lattice_.front().delta;
      double committed = -kInf, runner = -kInf;
      for (std::size_t c = 0; c < n; ++c) {
        const double mm = delta[c] + beta[c];
        if (c == s0) {
          committed = mm;
        } else {
          runner = std::max(runner, mm);
        }
      }
      confidence = runner == -kInf ? kInf : committed - runner;
    }

    const bool fused =
        depth > 1 && std::all_of(lattice_[1].backptr.begin(), lattice_[1].backptr.end(),
                                 [&](std::size_t p) { return p == s0; });
    const bool converged = fused || n == 1;

    const double base = lattice_.front().delta[s0];
    out_.push_back({s0, converged, confidence});
    lattice_.pop_front();
    if (lattice_.empty()) {
      last_committed_ = s0;
      return;
    }
    Node& front = lattice_.front();
    if (!fused) {
      for (std::size_t c = 0; c < n; ++c) {
        front.delta[c] = base + log_trans_(s0, c) + front.emissions[c];
      }
      normalize_shift(front.delta);
      for (std::size_t t = 1; t < lattice_.size(); ++t) {
        Node& cur = lattice_[t];
        const linalg::Vector old_delta = cur.delta;
        const std::vector<std::size_t> old_backptr = cur.backptr;
        advance(cur, &lattice_[t - 1]);
        if (cur.delta == old_delta && cur.backptr == old_backptr) break;
      }
    }
    front.backptr.clear();
  }

  std::size_t n_;
  SequenceDecoderConfig config_;
  linalg::Matrix log_trans_;
  std::deque<Node> lattice_;
  std::vector<Decision> out_;
  std::optional<std::size_t> last_committed_;
};

TEST(SequenceDecoderTest, InvalidConstruction) {
  auto prior = std::make_shared<core::BigramPrior>(4);
  EXPECT_THROW(SequenceDecoder({}, prior), std::invalid_argument);
  EXPECT_THROW(SequenceDecoder({0, 1}, nullptr), std::invalid_argument);
  EXPECT_THROW(SequenceDecoder({0, 4}, prior), std::invalid_argument);
}

TEST(SequenceDecoderTest, PassThroughWithoutPosterior) {
  auto prior = std::make_shared<core::BigramPrior>(4);
  SequenceDecoder dec({0, 1, 2, 3}, prior);
  core::Disassembly plain;
  plain.class_idx = 2;
  dec.push(plain);  // no log_posterior: immediate unsmoothed delivery
  const auto w = dec.poll();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->value.class_idx, 2u);
  EXPECT_FALSE(w->smoothed);
  EXPECT_TRUE(w->converged);
  EXPECT_EQ(w->confidence, kInf);
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(SequenceDecoderTest, PriorWeightZeroReproducesPerWindowArgmax) {
  const std::vector<std::size_t> support = {0, 1, 2};
  auto prior = std::make_shared<core::BigramPrior>(3);
  SequenceDecoderConfig cfg;
  cfg.lag = 3;
  cfg.prior_weight = 0.0;
  SequenceDecoder dec(support, prior, cfg);
  std::mt19937_64 rng{11};
  std::uniform_real_distribution<double> em(-5.0, 0.0);
  std::vector<SmoothedWindow> out;
  for (int t = 0; t < 20; ++t) {
    linalg::Vector row(3);
    for (double& x : row) x = em(rng);
    dec.push(make_window(core::log_softmax(row), support));
    while (auto w = dec.poll()) out.push_back(std::move(*w));
  }
  for (auto& w : dec.flush()) out.push_back(std::move(w));
  ASSERT_EQ(out.size(), 20u);
  for (const SmoothedWindow& w : out) {
    EXPECT_EQ(w.value.class_idx, w.raw_class);  // argmax was already the input
    EXPECT_FALSE(w.smoothed);
    EXPECT_GT(w.confidence, 0.0);
  }
  EXPECT_EQ(dec.smoothed_count(), 0u);
}

TEST(SequenceDecoderTest, ConfidenceFeedsTheRejectVocabulary) {
  const std::vector<std::size_t> support = {0, 1};
  auto prior = std::make_shared<core::BigramPrior>(2);
  // An impossible bar: every confident kOk window degrades.
  SequenceDecoderConfig strict;
  strict.lag = 1;
  strict.min_confidence = 1e9;
  SequenceDecoder gate(support, prior, strict);
  linalg::Vector emphatic{-0.01, -6.0};
  gate.push(make_window(emphatic, support));
  gate.push(make_window(emphatic, support));
  auto flushed = gate.flush();
  ASSERT_EQ(flushed.size(), 2u);
  for (const SmoothedWindow& w : flushed) {
    EXPECT_EQ(w.value.verdict, core::Verdict::kDegraded);
  }
  // Repair: a kRejected window the lattice is near-certain about upgrades to
  // kDegraded (never straight to kOk).
  SequenceDecoderConfig repair;
  repair.lag = 1;
  repair.repair_confidence = 0.5;
  SequenceDecoder healer(support, prior, repair);
  core::Disassembly rejected = make_window(emphatic, support);
  rejected.verdict = core::Verdict::kRejected;
  healer.push(rejected);
  healer.push(make_window(emphatic, support));
  flushed = healer.flush();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].value.verdict, core::Verdict::kDegraded);
  EXPECT_EQ(flushed[1].value.verdict, core::Verdict::kOk);
}

TEST(DecodeEquivalence, BoundedLagAgreesWithOfflineViterbi) {
  const std::size_t n = 4;
  const std::size_t len = 32;
  const std::vector<std::size_t> support = {0, 1, 2, 3};
  std::mt19937_64 rng{20260806};
  std::uniform_real_distribution<double> em(-5.0, 0.0);
  std::uniform_int_distribution<int> cnt(0, 5);
  linalg::Matrix emissions(len, n);
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t c = 0; c < n; ++c) emissions(t, c) = em(rng);
  }
  auto prior = std::make_shared<core::BigramPrior>(n, 0.5);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const int reps = cnt(rng);
      for (int k = 0; k < reps; ++k) prior->add_transition(a, b);
    }
  }
  const std::vector<std::size_t> offline =
      core::viterbi_decode(emissions, *prior, 1.0);

  for (const std::size_t lag : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                std::size_t{8}, len}) {
    SequenceDecoderConfig cfg;
    cfg.lag = lag;
    SequenceDecoder dec(support, prior, cfg);
    std::vector<SmoothedWindow> out;
    for (std::size_t t = 0; t < len; ++t) {
      linalg::Vector row(n);
      for (std::size_t c = 0; c < n; ++c) row[c] = emissions(t, c);
      dec.push(make_window(row, support));
      while (auto w = dec.poll()) out.push_back(std::move(*w));
    }
    for (auto& w : dec.flush()) out.push_back(std::move(w));
    ASSERT_EQ(out.size(), len) << "lag " << lag;

    // Convergence is a certificate *given the emitted prefix*: while every
    // commit so far converged, the emitted prefix provably equals offline
    // Viterbi's.  (After the first forced commit the decoder solves the
    // conditioned problem, so later windows may legitimately differ.)
    std::size_t converged = 0;
    bool prefix_converged = true;
    for (std::size_t t = 0; t < len; ++t) {
      if (!out[t].converged) prefix_converged = false;
      if (out[t].converged) ++converged;
      if (prefix_converged) {
        EXPECT_EQ(out[t].value.class_idx, support[offline[t]])
            << "lag " << lag << " window " << t;
      }
    }
    if (lag >= len) {
      // The whole stream fit inside the lattice: flush() IS offline Viterbi.
      for (std::size_t t = 0; t < len; ++t) {
        EXPECT_EQ(out[t].value.class_idx, support[offline[t]]) << "window " << t;
        EXPECT_TRUE(out[t].converged);
      }
    }
    if (lag >= 3) {
      EXPECT_GT(converged, 0u) << "lag " << lag;
    }
  }
}

TEST(SequenceDecoderTest, MalformedPosteriorBreaksTheChainInsteadOfPoisoningIt) {
  // Sharp windows under a flat prior decode to their own argmax.  One
  // malformed row among them must pass through unsmoothed and leave every
  // other window's decision alone -- not drag the rest of the stream to
  // class 0 with an infinite confidence.
  const std::vector<std::size_t> support = {0, 1, 2, 3};
  auto prior = std::make_shared<core::BigramPrior>(4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<linalg::Vector> malformed = {
      linalg::Vector(4, nan),                  // all NaN
      linalg::Vector{-0.1, nan, -3.0, -4.0},   // one NaN
      linalg::Vector(4, -kInf),                // no finite entry
      linalg::Vector{-0.1, kInf, -3.0, -4.0},  // +inf is no log-probability
  };
  const std::vector<std::size_t> truth = {1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3};
  const std::size_t bad_at = 4;
  for (std::size_t m = 0; m < malformed.size(); ++m) {
    SequenceDecoderConfig cfg;
    cfg.lag = 2;
    SequenceDecoder dec(support, prior, cfg);
    std::vector<SmoothedWindow> out;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (i == bad_at) {
        core::Disassembly bad;
        bad.class_idx = 3;
        bad.log_posterior = malformed[m];
        dec.push(bad);
      } else {
        linalg::Vector row(4, -8.0);
        row[truth[i]] = -0.001;
        dec.push(make_window(row, support));
      }
      while (auto w = dec.poll()) out.push_back(std::move(*w));
    }
    for (auto& w : dec.flush()) out.push_back(std::move(w));
    ASSERT_EQ(out.size(), truth.size()) << "variant " << m;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_FALSE(out[i].smoothed) << "variant " << m << " window " << i;
      EXPECT_TRUE(out[i].converged) << "variant " << m << " window " << i;
      if (i == bad_at) {
        EXPECT_EQ(out[i].value.class_idx, 3u) << "variant " << m;
        EXPECT_EQ(out[i].confidence, kInf) << "variant " << m;
      } else {
        EXPECT_EQ(out[i].value.class_idx, truth[i]) << "variant " << m << " window " << i;
        EXPECT_TRUE(std::isfinite(out[i].confidence)) << "variant " << m << " window " << i;
        EXPECT_GT(out[i].confidence, 0.0) << "variant " << m << " window " << i;
      }
    }
  }
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Emission rows for an ISA-scale stream: coarse-grid scores (exact ties
/// within and across rows), about one -inf entry in eight, and every 29th row
/// flat, all over a planted class that keeps each row finite somewhere.
std::vector<linalg::Vector> isa_scale_rows(std::size_t n, std::size_t len,
                                           std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::uniform_int_distribution<int> grid(1, 16);
  std::uniform_int_distribution<int> hole(0, 7);
  std::uniform_int_distribution<std::size_t> cls(0, n - 1);
  std::vector<linalg::Vector> rows(len, linalg::Vector(n));
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t c = 0; c < n; ++c) {
      rows[t][c] = hole(rng) == 0 ? -kInf : -0.5 * grid(rng);
      if (t % 29 == 0) rows[t][c] = -1.0;
    }
    rows[t][cls(rng)] = 0.0;
  }
  return rows;
}

TEST(DecodeEquivalence, IsaScaleKernelsMatchScalarReference) {
  const auto prior = std::make_shared<core::IsaPrior>();
  const std::size_t n = prior->num_classes();
  ASSERT_GE(n, 100u);
  std::vector<std::size_t> support(n);
  std::iota(support.begin(), support.end(), std::size_t{0});
  const std::vector<linalg::Vector> rows = isa_scale_rows(n, 2000, 20261017);

  for (const std::size_t lag : {std::size_t{0}, std::size_t{2}, std::size_t{6}}) {
    SequenceDecoderConfig cfg;
    cfg.lag = lag;
    SequenceDecoder dec(support, prior, cfg);
    ScalarReferenceDecoder ref(n, *prior, cfg);
    std::vector<SmoothedWindow> out;
    for (const linalg::Vector& row : rows) {
      dec.push(make_window(row, support));
      ref.push(row);
      while (auto w = dec.poll()) out.push_back(std::move(*w));
    }
    for (auto& w : dec.flush()) out.push_back(std::move(w));
    const std::vector<ScalarReferenceDecoder::Decision> expected = ref.flush();
    ASSERT_EQ(out.size(), rows.size()) << "lag " << lag;
    ASSERT_EQ(expected.size(), rows.size());
    std::size_t mismatches = 0, converged = 0;
    for (std::size_t t = 0; t < rows.size(); ++t) {
      const bool same = out[t].value.class_idx == support[expected[t].state] &&
                        out[t].converged == expected[t].converged &&
                        bits_of(out[t].confidence) == bits_of(expected[t].confidence);
      if (!same && mismatches++ == 0) {
        ADD_FAILURE() << "lag " << lag << " window " << t << ": class "
                      << out[t].value.class_idx << " vs " << expected[t].state
                      << ", converged " << out[t].converged << " vs "
                      << expected[t].converged << ", confidence " << out[t].confidence
                      << " vs " << expected[t].confidence;
      }
      converged += out[t].converged ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "lag " << lag;
    // The battery must exercise both commit kinds.
    if (lag > 0) {
      EXPECT_GT(converged, 0u) << "lag " << lag;
      EXPECT_LT(converged, rows.size()) << "lag " << lag;
    }
  }
}

TEST(SequenceDecoderTest, SteadyStatePushAllocatesNothing) {
  const auto prior = std::make_shared<core::IsaPrior>();
  const std::size_t n = prior->num_classes();
  std::vector<std::size_t> support(n);
  std::iota(support.begin(), support.end(), std::size_t{0});
  // Warm-up rows hold one state, or an exact two-way tie (so commits both
  // fuse and rebase), with every other state far out of reach: no support
  // exceeds two states.  The measured ISA-scale rows that follow reach all n
  // states (every 29th is flat), so a slot's support must grow in place.
  const std::size_t warm = 100;
  std::mt19937_64 rng{7};
  std::uniform_int_distribution<std::size_t> cls(0, n - 1);
  std::vector<linalg::Vector> rows;
  for (std::size_t t = 0; t < warm; ++t) {
    linalg::Vector row(n, -1e4);
    row[cls(rng)] = 0.0;
    if (t % 2 == 1) row[cls(rng)] = 0.0;
    rows.push_back(std::move(row));
  }
  for (linalg::Vector& row : isa_scale_rows(n, 300, 7)) rows.push_back(std::move(row));

  SequenceDecoderConfig cfg;
  cfg.lag = 6;
  SequenceDecoder dec(support, prior, cfg);
  std::vector<core::Disassembly> windows;
  for (const linalg::Vector& row : rows) windows.push_back(make_window(row, support));
  std::vector<SmoothedWindow> sink;
  sink.reserve(windows.size());
  std::size_t widest = 0;
  const auto push = [&](std::size_t i) {
    dec.push(std::move(windows[i]));
    const std::size_t depth = SequenceDecoderProbe::depth(dec);
    if (depth > 0) {
      widest = std::max(widest, SequenceDecoderProbe::support(dec, depth - 1).size());
    }
    while (auto w = dec.poll()) sink.push_back(std::move(*w));
  };
  for (std::size_t i = 0; i < warm; ++i) push(i);
  EXPECT_LE(widest, 2u);
  EXPECT_TRUE(std::any_of(sink.begin(), sink.end(),
                          [](const SmoothedWindow& w) { return !w.converged; }))
      << "the warm-up must rebase the lattice";
  const std::size_t before = t_allocations;
  for (std::size_t i = warm; i < windows.size(); ++i) push(i);
  EXPECT_EQ(t_allocations - before, 0u);
  EXPECT_EQ(widest, n);
  EXPECT_EQ(sink.size() + dec.pending(), windows.size());
}

// -- the group-skip exchange bound -------------------------------------------

constexpr double kReach = core::HierarchicalDisassembler::kGroupReach;

/// One 112-class emission row composed as the scored walk composes it, a
/// log-softmax over the Table-2 groups plus one within each group, in two
/// forms: `exact` runs every group's within-group factor, `skipped` gives
/// each class of a group more than kReach behind the best group
/// log P(group) - log |group|, as the walk does.  Group gaps come from near
/// ties, a middle band, a band around kReach and far beyond, so rows both
/// keep and skip groups close to the line.
struct GroupedRow {
  linalg::Vector exact;
  linalg::Vector skipped;
};

GroupedRow grouped_row(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> kind(0, 4);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::span<const int> sizes = avr::expected_group_sizes();
  linalg::Vector group_scores(sizes.size());
  for (double& g : group_scores) {
    switch (kind(rng)) {
      case 0: g = -6.0 * unit(rng); break;                  // near tie
      case 1: g = -(6.0 + 14.0 * unit(rng)); break;          // middle band
      case 2: g = -(kReach - 2.0 + 4.0 * unit(rng)); break;  // around the line
      case 3: g = -(kReach + 2.0 + 200.0 * unit(rng)); break;
      default: g = -1000.0; break;
    }
  }
  group_scores[static_cast<std::size_t>(rng() % sizes.size())] = 0.0;
  const linalg::Vector group_lp = core::log_softmax(group_scores);
  const double best = *std::max_element(group_lp.begin(), group_lp.end());

  GroupedRow row{linalg::Vector(avr::num_instruction_classes()),
                 linalg::Vector(avr::num_instruction_classes())};
  for (std::size_t gi = 0; gi < sizes.size(); ++gi) {
    const std::vector<std::size_t> members = avr::classes_in_group(static_cast<int>(gi) + 1);
    linalg::Vector within(members.size());
    for (double& w : within) w = -8.0 * unit(rng);
    within = core::log_softmax(within);
    const bool reached = group_lp[gi] >= best - kReach;
    for (std::size_t k = 0; k < members.size(); ++k) {
      row.exact[members[k]] = group_lp[gi] + within[k];
      row.skipped[members[k]] =
          reached ? row.exact[members[k]]
                  : group_lp[gi] - std::log(static_cast<double>(members.size()));
    }
  }
  return row;
}

/// A BigramPrior over the whole class table with random sparse evidence.
std::shared_ptr<core::BigramPrior> random_bigram(std::mt19937_64& rng) {
  const std::size_t n = avr::num_instruction_classes();
  auto prior = std::make_shared<core::BigramPrior>(n);
  std::uniform_int_distribution<std::size_t> cls(0, n - 1);
  std::uniform_int_distribution<int> reps(1, 40);
  for (std::size_t k = 0; k < 3 * n; ++k) {
    const std::size_t from = cls(rng), to = cls(rng);
    for (int r = reps(rng); r > 0; --r) prior->add_transition(from, to);
  }
  return prior;
}

std::vector<SmoothedWindow> decode_rows(const std::vector<linalg::Vector>& rows,
                                        std::shared_ptr<const core::TransitionPrior> prior,
                                        const SequenceDecoderConfig& cfg) {
  std::vector<std::size_t> support(avr::num_instruction_classes());
  std::iota(support.begin(), support.end(), std::size_t{0});
  SequenceDecoder dec(support, std::move(prior), cfg);
  std::vector<SmoothedWindow> out;
  for (const linalg::Vector& row : rows) {
    dec.push(make_window(row, support));
    while (auto w = dec.poll()) out.push_back(std::move(*w));
  }
  for (auto& w : dec.flush()) out.push_back(std::move(w));
  return out;
}

TEST(GroupSkipBound, SkippedGroupsMoveNoDecodedLabel) {
  const std::size_t len = 120;
  std::vector<std::size_t> support(avr::num_instruction_classes());
  std::iota(support.begin(), support.end(), std::size_t{0});
  std::size_t smoothed = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng{seed};
    std::vector<linalg::Vector> exact, skipped;
    linalg::Matrix exact_m(len, avr::num_instruction_classes());
    linalg::Matrix skipped_m(len, avr::num_instruction_classes());
    for (std::size_t t = 0; t < len; ++t) {
      GroupedRow row = grouped_row(rng);
      for (std::size_t c = 0; c < row.exact.size(); ++c) {
        exact_m(t, c) = row.exact[c];
        skipped_m(t, c) = row.skipped[c];
      }
      exact.push_back(std::move(row.exact));
      skipped.push_back(std::move(row.skipped));
    }
    const std::shared_ptr<core::BigramPrior> bigram = random_bigram(rng);
    const auto isa = std::make_shared<const core::IsaPrior>(*bigram);
    for (const std::shared_ptr<const core::TransitionPrior>& prior :
         {std::shared_ptr<const core::TransitionPrior>(bigram),
          std::shared_ptr<const core::TransitionPrior>(isa)}) {
      for (const double w : {0.0, 1.0}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " isa " +
                     std::to_string(prior == isa) + " weight " + std::to_string(w));
        EXPECT_EQ(core::viterbi_decode(exact_m, *prior, w),
                  core::viterbi_decode(skipped_m, *prior, w));
        for (const std::size_t lag : {std::size_t{0}, std::size_t{6}, len}) {
          SequenceDecoderConfig cfg;
          cfg.lag = lag;
          cfg.prior_weight = w;
          const double margin = SequenceDecoder(support, prior, cfg).exchange_margin();
          ASSERT_GT(margin, 0.0);
          const std::vector<SmoothedWindow> a = decode_rows(exact, prior, cfg);
          const std::vector<SmoothedWindow> b = decode_rows(skipped, prior, cfg);
          ASSERT_EQ(a.size(), len);
          ASSERT_EQ(b.size(), len);
          for (std::size_t t = 0; t < len; ++t) {
            SCOPED_TRACE("lag " + std::to_string(lag) + " t " + std::to_string(t));
            EXPECT_EQ(a[t].value.class_idx, b[t].value.class_idx);
            EXPECT_EQ(a[t].smoothed, b[t].smoothed);
            EXPECT_EQ(a[t].converged, b[t].converged);
            if (bits_of(a[t].confidence) != bits_of(b[t].confidence)) {
              EXPECT_GE(a[t].confidence, margin);
              EXPECT_GE(b[t].confidence, margin);
            }
            smoothed += a[t].smoothed ? 1 : 0;
          }
        }
      }
    }
  }
  // The battery must see the prior overrule emissions.
  EXPECT_GT(smoothed, 0u);
}

TEST(GroupSkipBound, DecoderRefusesAPriorThatBreaksTheBound) {
  std::mt19937_64 rng{4};
  const auto isa = std::make_shared<const core::IsaPrior>(*random_bigram(rng));
  std::vector<std::size_t> support(avr::num_instruction_classes());
  std::iota(support.begin(), support.end(), std::size_t{0});
  SequenceDecoderConfig cfg;
  EXPECT_GT(SequenceDecoder(support, isa, cfg).exchange_margin(), 0.0);
  cfg.prior_weight = 10.0;
  EXPECT_THROW(SequenceDecoder(support, isa, cfg), std::invalid_argument);
}

// -- the exact state support --------------------------------------------------
//
// Each lattice step reduces only over the states within Δ_s of a window's
// best emission.  These cases hold the decoder to the dense n x n reference
// at its edges: supports of all n states and of one, supports that swing
// between the two, entries exactly on the boundary, exact ties, states a
// hair inside the spreads that still decide, and a zero prior weight.

/// The weighted prior's largest row spread (one source, any two
/// destinations) and column spread (one destination, any two sources).
struct Spreads {
  double row = 0.0;
  double col = 0.0;
};

Spreads weighted_spreads(const core::TransitionPrior& prior, double weight) {
  const std::size_t n = prior.num_classes();
  Spreads s;
  for (std::size_t a = 0; a < n; ++a) {
    double row_min = kInf, row_max = -kInf, col_min = kInf, col_max = -kInf;
    for (std::size_t b = 0; b < n; ++b) {
      const double r = weight * prior.log_prob(a, b);
      const double c = weight * prior.log_prob(b, a);
      row_min = std::min(row_min, r);
      row_max = std::max(row_max, r);
      col_min = std::min(col_min, c);
      col_max = std::max(col_max, c);
    }
    s.row = std::max(s.row, row_max - row_min);
    s.col = std::max(s.col, col_max - col_min);
  }
  return s;
}

/// Δ_s as the decoder derives it over the full class table.
double support_reach(const core::TransitionPrior& prior, double weight) {
  const Spreads s = weighted_spreads(prior, weight);
  return s.row + s.col + 37.0;
}

/// Decodes `rows` over the full class table with the SequenceDecoder and the
/// dense ScalarReferenceDecoder side by side.  After every push, each
/// lattice node's scores and backpointers must match the reference's bit
/// for bit, and the newest node's support must be exactly the states within
/// `reach` of its best emission (boundary included); at the end, every
/// emission's state, converged flag and confidence must match.  With the
/// whole stream inside the lag, the states must also equal offline Viterbi's.
/// Returns the decoder's emissions and each pushed window's support size.
struct SupportRun {
  std::vector<SmoothedWindow> out;
  std::vector<std::size_t> support_sizes;
};

SupportRun expect_dense_equivalent(const std::vector<linalg::Vector>& rows,
                                   const std::shared_ptr<const core::TransitionPrior>& prior,
                                   const SequenceDecoderConfig& cfg, double reach) {
  const std::size_t n = prior->num_classes();
  std::vector<std::size_t> support(n);
  std::iota(support.begin(), support.end(), std::size_t{0});
  SequenceDecoder dec(support, prior, cfg);
  ScalarReferenceDecoder ref(n, *prior, cfg);
  SupportRun run;
  std::size_t lattice_mismatches = 0, support_mismatches = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const linalg::Vector& row = rows[i];
    dec.push(make_window(row, support));
    ref.push(row);
    const std::size_t depth = SequenceDecoderProbe::depth(dec);
    if (depth != ref.lattice().size()) {
      ADD_FAILURE() << "window " << i << ": lattice depth " << depth << " vs "
                    << ref.lattice().size();
      ++lattice_mismatches;
      continue;
    }
    for (std::size_t t = 0; t < depth; ++t) {
      const linalg::Vector& delta = SequenceDecoderProbe::delta(dec, t);
      const ScalarReferenceDecoder::Node& expected = ref.lattice()[t];
      bool same = delta.size() == expected.delta.size() &&
                  SequenceDecoderProbe::backptr(dec, t) == expected.backptr;
      for (std::size_t c = 0; same && c < delta.size(); ++c) {
        same = bits_of(delta[c]) == bits_of(expected.delta[c]);
      }
      if (!same && lattice_mismatches++ == 0) {
        ADD_FAILURE() << "window " << i << ": lattice node " << t
                      << " differs from the dense recursion";
      }
    }
    const double floor = *std::max_element(row.begin(), row.end()) - reach;
    std::vector<std::size_t> within;
    for (std::size_t c = 0; c < n; ++c) {
      if (row[c] >= floor) within.push_back(c);
    }
    if (depth > 0) {
      if (SequenceDecoderProbe::support(dec, depth - 1) != within &&
          support_mismatches++ == 0) {
        ADD_FAILURE() << "window " << i << ": support of "
                      << SequenceDecoderProbe::support(dec, depth - 1).size()
                      << " states, expected " << within.size();
      }
    }
    run.support_sizes.push_back(within.size());
    while (auto w = dec.poll()) run.out.push_back(std::move(*w));
  }
  for (auto& w : dec.flush()) run.out.push_back(std::move(w));
  EXPECT_EQ(lattice_mismatches, 0u);
  EXPECT_EQ(support_mismatches, 0u);

  const std::vector<ScalarReferenceDecoder::Decision> expected = ref.flush();
  EXPECT_EQ(run.out.size(), rows.size());
  EXPECT_EQ(expected.size(), rows.size());
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < std::min(run.out.size(), expected.size()); ++t) {
    const SmoothedWindow& w = run.out[t];
    const bool same = w.value.class_idx == expected[t].state &&
                      w.converged == expected[t].converged &&
                      bits_of(w.confidence) == bits_of(expected[t].confidence);
    if (!same && mismatches++ == 0) {
      ADD_FAILURE() << "window " << t << ": class " << w.value.class_idx << " vs "
                    << expected[t].state << ", converged " << w.converged << " vs "
                    << expected[t].converged << ", confidence " << w.confidence << " vs "
                    << expected[t].confidence;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  if (cfg.lag >= rows.size() && run.out.size() == rows.size()) {
    linalg::Matrix emissions(rows.size(), n);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      for (std::size_t c = 0; c < n; ++c) emissions(t, c) = rows[t][c];
    }
    const std::vector<std::size_t> offline =
        core::viterbi_decode(emissions, *prior, cfg.prior_weight);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      EXPECT_EQ(run.out[t].value.class_idx, offline[t]) << "window " << t;
    }
  }
  return run;
}

/// The lags every support case runs at: greedy, the serving default of the
/// benchmark, and the whole stream (offline Viterbi).
std::vector<std::size_t> support_lags(std::size_t len) { return {0, 6, len}; }

TEST(DecodeEquivalence, FlatPosteriorSupportsEveryState) {
  const auto prior = std::make_shared<const core::IsaPrior>();
  const std::size_t n = prior->num_classes();
  ASSERT_EQ(n, 112u);
  const std::size_t len = 40;
  const std::vector<linalg::Vector> rows(len, linalg::Vector(n, -std::log(112.0)));
  for (const double w : {1.0, 0.0}) {
    for (const std::size_t lag : support_lags(len)) {
      SCOPED_TRACE("weight " + std::to_string(w) + " lag " + std::to_string(lag));
      SequenceDecoderConfig cfg;
      cfg.lag = lag;
      cfg.prior_weight = w;
      const SupportRun run = expect_dense_equivalent(rows, prior, cfg, support_reach(*prior, w));
      for (const std::size_t k : run.support_sizes) EXPECT_EQ(k, n);
    }
  }
}

TEST(DecodeEquivalence, OneStateSupportsKeepAFiniteRunnerUp) {
  // One state at 0 per row.  The rest sit at -inf in even rows and, in odd
  // rows, far below the reach (but finite): every support is one state, and
  // the runner-up of an odd row's confidence lies outside it.
  const auto prior = std::make_shared<const core::IsaPrior>();
  const std::size_t n = prior->num_classes();
  const std::size_t len = 48;
  std::mt19937_64 rng{27};
  std::uniform_int_distribution<std::size_t> cls(0, n - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const double w : {1.0, 0.0}) {
    const double reach = support_reach(*prior, w);
    std::vector<linalg::Vector> rows;
    for (std::size_t t = 0; t < len; ++t) {
      linalg::Vector row(n, -kInf);
      if (t % 2 == 1) {
        for (double& x : row) x = -reach - 1.0 - 50.0 * unit(rng);
      }
      row[cls(rng)] = 0.0;
      rows.push_back(std::move(row));
    }
    for (const std::size_t lag : support_lags(len)) {
      SCOPED_TRACE("weight " + std::to_string(w) + " lag " + std::to_string(lag));
      SequenceDecoderConfig cfg;
      cfg.lag = lag;
      cfg.prior_weight = w;
      const SupportRun run = expect_dense_equivalent(rows, prior, cfg, reach);
      for (const std::size_t k : run.support_sizes) EXPECT_EQ(k, 1u);
      std::size_t finite = 0;
      for (const SmoothedWindow& out : run.out) {
        finite += std::isfinite(out.confidence) ? 1 : 0;
      }
      EXPECT_GT(finite, 0u);
    }
  }
}

TEST(DecodeEquivalence, SupportsSwingAcrossTheReachBoundary) {
  // Rows cycle through one state in reach, all states in reach (one at 0,
  // the rest at -1) and a mixed row whose entries sit at exact ties with
  // the best, exactly on the boundary (max - Δ_s, kept), one double below it
  // (dropped), inside and beyond the reach, and at -inf.  Supports swing
  // between 1 and 112 from one step to the next.
  const std::shared_ptr<const core::TransitionPrior> isa =
      std::make_shared<const core::IsaPrior>();
  const std::size_t n = isa->num_classes();
  std::mt19937_64 rng{2718};
  const std::shared_ptr<const core::TransitionPrior> bigram = random_bigram(rng);
  const std::size_t len = 60;
  std::uniform_int_distribution<std::size_t> cls(0, n - 1);
  std::uniform_int_distribution<int> kind(0, 6);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const std::shared_ptr<const core::TransitionPrior>& prior : {isa, bigram}) {
    for (const double w : {1.0, 0.0}) {
      const double reach = support_reach(*prior, w);
      std::vector<linalg::Vector> rows;
      for (std::size_t t = 0; t < len; ++t) {
        linalg::Vector row(n);
        for (double& x : row) {
          switch (t % 3 == 2 ? kind(rng) : 0) {
            case 0: x = -reach - 10.0; break;
            case 1: x = 0.0; break;
            case 2: x = -reach; break;
            case 3: x = std::nextafter(-reach, -kInf); break;
            case 4: x = -reach * unit(rng); break;
            case 5: x = -kInf; break;
            default: x = -reach - 1.0 - 100.0 * unit(rng); break;
          }
        }
        if (t % 3 == 1) row.assign(n, -1.0);
        row[cls(rng)] = 0.0;
        rows.push_back(std::move(row));
      }
      for (const std::size_t lag : support_lags(len)) {
        SCOPED_TRACE("bigram " + std::to_string(prior == bigram) + " weight " +
                     std::to_string(w) + " lag " + std::to_string(lag));
        SequenceDecoderConfig cfg;
        cfg.lag = lag;
        cfg.prior_weight = w;
        const SupportRun run = expect_dense_equivalent(rows, prior, cfg, reach);
        for (std::size_t t = 0; t < len; ++t) {
          const std::size_t k = run.support_sizes[t];
          switch (t % 3) {
            case 0: EXPECT_EQ(k, 1u) << "window " << t; break;
            case 1: EXPECT_EQ(k, n) << "window " << t; break;
            default:
              EXPECT_GT(k, 1u) << "window " << t;
              EXPECT_LT(k, n) << "window " << t;
              break;
          }
        }
      }
    }
  }
}

TEST(DecodeEquivalence, StatesInsideTheSpreadsStillDecide) {
  // Swapping the middle state of a path p -> x -> c for y changes its score
  // by D = [T(p, x) - T(p, y)] + [T(x, c) - T(y, c)] - g, where g is how far
  // x's emission sits below y's; D is at most the row plus the column spread
  // minus g.  Take the ISA prior's largest such gain and put x g nats below
  // y, g halfway between the spreads minus one nat and the gain: the
  // decoder must route through x, and a reach one nat short of the spreads
  // would drop it.
  const auto prior = std::make_shared<const core::IsaPrior>();
  const std::size_t n = prior->num_classes();
  std::size_t p = 0, x = 0, y = 0, c = 0;
  double gain = -kInf;
  for (std::size_t xi = 0; xi < n; ++xi) {
    for (std::size_t yi = 0; yi < n; ++yi) {
      std::size_t pi = 0, ci = 0;
      for (std::size_t k = 1; k < n; ++k) {
        const auto into = [&](std::size_t q) {
          return prior->log_prob(q, xi) - prior->log_prob(q, yi);
        };
        const auto out_of = [&](std::size_t q) {
          return prior->log_prob(xi, q) - prior->log_prob(yi, q);
        };
        if (into(k) > into(pi)) pi = k;
        if (out_of(k) > out_of(ci)) ci = k;
      }
      const double d = prior->log_prob(pi, xi) - prior->log_prob(pi, yi) +
                       (prior->log_prob(xi, ci) - prior->log_prob(yi, ci));
      if (d > gain) {
        gain = d;
        p = pi;
        x = xi;
        y = yi;
        c = ci;
      }
    }
  }
  const Spreads spreads = weighted_spreads(*prior, 1.0);
  const double narrowed = spreads.row + spreads.col - 1.0;
  ASSERT_GT(gain, narrowed) << "the prior leaves no band between the spreads and the gain";
  const double g = 0.5 * (gain + narrowed);

  const std::size_t len = 12;
  std::vector<linalg::Vector> rows(len, linalg::Vector(n, -std::log(112.0)));
  for (std::size_t t = 0; t < 3; ++t) rows[t].assign(n, -kInf);
  rows[0][p] = 0.0;
  rows[1][y] = 0.0;
  rows[1][x] = -g;
  rows[2][c] = 0.0;
  for (const std::size_t lag : {std::size_t{6}, len}) {
    SCOPED_TRACE("lag " + std::to_string(lag));
    SequenceDecoderConfig cfg;
    cfg.lag = lag;
    const SupportRun run =
        expect_dense_equivalent(rows, prior, cfg, support_reach(*prior, 1.0));
    EXPECT_EQ(run.support_sizes[1], 2u);
    ASSERT_EQ(run.out.size(), len);
    EXPECT_EQ(run.out[1].value.class_idx, x);
  }
}

// -- model-backed battery ----------------------------------------------------

constexpr std::size_t kSeqSeed = 20260806;

struct DecodeFixture {
  std::shared_ptr<const core::HierarchicalDisassembler> model;
  std::shared_ptr<const core::IsaPrior> prior;
  sim::TraceSet stream;
  std::vector<std::size_t> truth;
};

/// One seeded profile->train + captured stream shared by every model-backed
/// test below (training dominates the battery's runtime).  Same-group ALU
/// classes on purpose: level-2 confusions are what sequence decoding exists
/// to repair.
const DecodeFixture& fixture() {
  static const DecodeFixture f = [] {
    DecodeFixture out;
    const std::vector<std::size_t> classes = {
        *avr::class_index(avr::Mnemonic::kAdd),
        *avr::class_index(avr::Mnemonic::kAdc),
        *avr::class_index(avr::Mnemonic::kSub)};
    sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                      sim::SessionContext::make(0)};
    std::mt19937_64 rng{kSeqSeed};
    core::ProfilingData data;
    for (const std::size_t cls : classes) {
      data.classes[cls] = campaign.capture_class(cls, 40, 3, rng);
    }
    core::HierarchicalConfig cfg;
    cfg.pipeline = core::csa_config();
    cfg.pipeline.pca_components = 10;
    cfg.group_components = 8;
    cfg.instruction_components = 8;
    auto model = core::HierarchicalDisassembler::train(data, cfg);
    model.calibrate_reject(data);
    out.model = std::make_shared<const core::HierarchicalDisassembler>(
        std::move(model));

    // Firmware-shaped truth: a wide-arithmetic cadence (ADD -> ADC, SUB
    // self-runs) with the bigram evidence estimated from that same cadence.
    core::BigramPrior evidence(avr::num_instruction_classes());
    std::mt19937_64 srng{kSeqSeed + 1};
    for (std::size_t i = 0; i < 60; ++i) {
      out.truth.push_back(classes[i % classes.size()]);
      if (i > 0) evidence.add_transition(out.truth[i - 1], out.truth[i]);
      out.stream.push_back(campaign.capture_trace(
          avr::random_instance(out.truth.back(), srng, {}),
          sim::ProgramContext::make(static_cast<int>(i % 3)), srng, 0.0));
    }
    out.prior = std::make_shared<const core::IsaPrior>(evidence);
    return out;
  }();
  return f;
}

TEST(ScoredClassify, MatchesPlainClassifyDecisions) {
  const DecodeFixture& f = fixture();
  const auto& support = f.model->posterior_classes();
  ASSERT_EQ(support.size(), 3u);
  ASSERT_TRUE(std::is_sorted(support.begin(), support.end()));
  for (const sim::Trace& t : f.stream) {
    const core::Disassembly plain = f.model->classify(t);
    const core::Disassembly scored = f.model->classify_scored(t);
    EXPECT_EQ(scored.class_idx, plain.class_idx);
    EXPECT_EQ(scored.group, plain.group);
    EXPECT_EQ(scored.verdict, plain.verdict);
    EXPECT_EQ(scored.rd, plain.rd);
    EXPECT_EQ(scored.rr, plain.rr);
    EXPECT_EQ(scored.margin_headroom, plain.margin_headroom);
    EXPECT_EQ(scored.score_headroom, plain.score_headroom);
    EXPECT_TRUE(plain.log_posterior.empty());
    ASSERT_EQ(scored.log_posterior.size(), support.size());
    double sum = 0.0;
    for (const double lp : scored.log_posterior) sum += std::exp(lp);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ScoredClassify, BatchIsBitIdenticalToScalar) {
  const DecodeFixture& f = fixture();
  const std::vector<core::Disassembly> batch =
      f.model->classify_batch_scored(f.stream);
  ASSERT_EQ(batch.size(), f.stream.size());
  for (std::size_t i = 0; i < f.stream.size(); ++i) {
    const core::Disassembly scalar = f.model->classify_scored(f.stream[i]);
    EXPECT_EQ(batch[i].class_idx, scalar.class_idx) << "window " << i;
    EXPECT_EQ(batch[i].verdict, scalar.verdict) << "window " << i;
    ASSERT_EQ(batch[i].log_posterior.size(), scalar.log_posterior.size());
    for (std::size_t c = 0; c < scalar.log_posterior.size(); ++c) {
      EXPECT_EQ(batch[i].log_posterior[c], scalar.log_posterior[c])
          << "window " << i << " class " << c;
    }
  }
}

/// Reference smoothing: classify_scored per window, in order, through a bare
/// SequenceDecoder -- what any runtime route must reproduce bit-for-bit.
std::vector<SmoothedWindow> reference_smoothed(const DecodeFixture& f,
                                               const SequenceDecoderConfig& cfg) {
  SequenceDecoder dec(f.model->posterior_classes(), f.prior, cfg);
  std::vector<SmoothedWindow> out;
  for (const sim::Trace& t : f.stream) {
    dec.push(f.model->classify_scored(t));
    while (auto w = dec.poll()) out.push_back(std::move(*w));
  }
  for (auto& w : dec.flush()) out.push_back(std::move(w));
  return out;
}

/// Streams f.stream through a fleet of `shards` x `workers` with sequence
/// decoding on and checks the smoothed stream against the bare-decoder
/// reference, window for window.
void expect_fleet_matches_reference(const DecodeFixture& f,
                                    const SequenceDecoderConfig& cfg,
                                    const std::vector<SmoothedWindow>& reference,
                                    std::size_t shards, std::size_t workers) {
  SCOPED_TRACE("shards " + std::to_string(shards) + " workers " +
               std::to_string(workers));
  const auto smoothed = static_cast<std::uint64_t>(std::count_if(
      reference.begin(), reference.end(),
      [](const SmoothedWindow& w) { return w.smoothed; }));
  FleetConfig fc;
  fc.shards = shards;
  fc.workers_per_shard = workers;
  fc.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(f.model, fc);
  StreamOptions so;
  so.decode_sequence = true;
  so.decode = cfg;
  so.decode_prior = f.prior;
  const auto id = fleet.open_stream(so);
  std::vector<FleetResult> out;
  for (const sim::Trace& t : f.stream) {
    ASSERT_TRUE(fleet.submit(id, t).accepted());
    while (auto r = fleet.poll(id)) out.push_back(std::move(*r));
  }
  for (FleetResult& r : fleet.close_stream(id)) out.push_back(std::move(r));
  ASSERT_EQ(out.size(), f.stream.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].stream_sequence, i);
    EXPECT_EQ(out[i].value.class_idx, reference[i].value.class_idx)
        << "window " << i;
    EXPECT_EQ(out[i].value.verdict, reference[i].value.verdict);
    EXPECT_EQ(out[i].smoothed, reference[i].smoothed);
    EXPECT_EQ(out[i].sequence_confidence, reference[i].confidence);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.runtime.windows_decoded, f.stream.size());
  EXPECT_EQ(stats.runtime.windows_smoothed, smoothed);
}

TEST(DecodeEquivalence, StreamingEngineIsWorkerCountInvariant) {
  // One shard, swept over workers_per_shard: batch grouping and completion
  // order vary, the smoothed stream must not.
  const DecodeFixture& f = fixture();
  SequenceDecoderConfig cfg;
  cfg.lag = 4;
  const std::vector<SmoothedWindow> reference = reference_smoothed(f, cfg);
  ASSERT_EQ(reference.size(), f.stream.size());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    expect_fleet_matches_reference(f, cfg, reference, 1, workers);
  }
}

TEST(DecodeEquivalence, FleetIsShardCountInvariant) {
  // Sweeps shards x workers_per_shard beyond the single shard.
  const DecodeFixture& f = fixture();
  SequenceDecoderConfig cfg;
  cfg.lag = 4;
  const std::vector<SmoothedWindow> reference = reference_smoothed(f, cfg);
  ASSERT_EQ(reference.size(), f.stream.size());
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      expect_fleet_matches_reference(f, cfg, reference, shards, workers);
    }
  }
}

TEST(GroupSkipBound, OpenStreamRefusesAPriorThatBreaksTheBound) {
  const DecodeFixture& f = fixture();
  FleetConfig fc;
  fc.shards = 1;
  fc.workers_per_shard = 1;
  FleetFrontend fleet(f.model, fc);
  StreamOptions so;
  so.decode_sequence = true;
  so.decode_prior = f.prior;
  so.decode.prior_weight = 10.0;
  EXPECT_THROW(fleet.open_stream(so), std::invalid_argument);
  EXPECT_EQ(fleet.stats().streams_opened, 0u);
  so.decode.prior_weight = 1.0;
  const auto id = fleet.open_stream(so);
  EXPECT_EQ(fleet.stats().streams_live, 1u);
  EXPECT_TRUE(fleet.close_stream(id).empty());
}

TEST(DecodeEquivalence, PlainStagePassesThroughUndecoded) {
  // A decode stream swapped to a stage that produces no posteriors must
  // degrade gracefully: everything passes through unsmoothed.
  const DecodeFixture& f = fixture();
  FleetConfig fc;
  fc.shards = 1;
  fc.workers_per_shard = 1;
  fc.admission = AdmissionPolicy::kBlock;
  FleetFrontend fleet(f.model, fc);
  StreamOptions so;
  so.decode_sequence = true;
  so.decode_prior = f.prior;
  const auto id = fleet.open_stream(so);
  fleet.swap_stage(id, make_stage(f.model));
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.submit(id, f.stream[i]).accepted());
  }
  const std::vector<FleetResult> out = fleet.close_stream(id);
  ASSERT_EQ(out.size(), 8u);
  for (const FleetResult& r : out) {
    EXPECT_FALSE(r.smoothed);
    EXPECT_EQ(r.sequence_confidence, kInf);
    EXPECT_EQ(r.value.class_idx,
              f.model->classify(f.stream[r.stream_sequence]).class_idx);
  }
  EXPECT_EQ(fleet.stats().runtime.windows_decoded, 8u);
}

}  // namespace
}  // namespace sidis::runtime
