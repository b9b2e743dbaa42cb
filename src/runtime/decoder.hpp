// Bounded-lag Viterbi smoothing over one stream's in-order delivery -- the
// runtime half of probabilistic sequence decoding.
//
// Offline Viterbi needs the whole sequence before it can emit anything; a
// serving tier cannot wait for a stream to end.  The SequenceDecoder keeps a
// sliding lattice of the last `lag + 1` windows: every push() extends the
// Viterbi recursion one step, and once the lattice exceeds the lag the oldest
// window is *committed* -- its state taken from the backtrace of the current
// frontier argmax -- and emitted with a max-marginal sequence confidence.
// After a commit the lattice is rebased by conditioning on the committed
// state, so consecutive emissions always form a connected path under the
// transition prior.
//
// Latency is bounded by construction (a window waits at most `lag` successor
// windows), and every commit on which the frontier paths already agree is
// flagged SmoothedWindow::converged: while all commits so far carry the flag,
// the emitted prefix is *exactly* what offline Viterbi would emit (after a
// forced commit the decoder solves the problem conditioned on that prefix,
// which is the right objective for a stream that must keep its word).  The
// decode-equivalence battery in sequence_test pins this against a dense
// offline Viterbi, and flush() finishes any tail with a full offline pass.
//
// Exact state support: each window keeps the ascending list of states whose
// emission lies within Δ_s of its best one, where Δ_s is the weighted prior's
// row spread + column spread over the support + 37 nats.  A state further
// down is never the max or the first-index argmax of any step: swapping it
// for the window's best state raises every path through it by more than
// Δ_s minus the spreads, i.e. by more than 37 nats (about -log DBL_EPSILON),
// a gap no double rounding of the recursion's sums can bridge.  So each
// recursion step reduces only over a support -- predecessors forward,
// successors backward -- at about (lag + 1) * k * n work per window instead
// of (lag + 1) * n^2, with k about 2 on real posteriors.  Destinations stay
// dense: every node still holds all n scores, backpointers and suffix
// scores, so the converged check (all n backpointers), the rebase and the
// max-marginal runner-up (often a state outside the support) are exactly
// what the dense recursion computes.
//
// The model's scored walk skips the level-2 model of every group more than
// HierarchicalDisassembler::kGroupReach nats behind a window's best group
// and spreads that group's mass evenly over its classes.  The decoder
// refuses, at construction, a weighted prior whose spreads could let such a
// class matter (see exchange_margin()), so the skip moves no decoded label,
// backpointer or converged flag.
//
// Windows without a usable posterior (plain classify() results, windows
// outside the decoder's class support, or a log_posterior holding a NaN, a
// +inf, or no finite entry) flush the lattice and pass through unsmoothed, so
// a mixed stream degrades gracefully instead of faulting -- and one malformed
// row cannot poison every later decision of the stream.
//
// The recursions run on two max-plus kernels with destination states in SIMD
// lanes (DESIGN.md, sequence decoding): each lane performs the scalar loop's
// operations in the scalar loop's order, so every decision, backpointer and
// confidence bit matches a plain per-state loop.  Steady-state push() and the
// commits it triggers allocate nothing: lattice nodes, their supports, beta
// rows and the rebase snapshot are reused buffers.
//
// Thread-safety: none.  One decoder belongs to one stream's single consumer
// (a FleetFrontend shard, under its lock, for decode_sequence streams),
// mirroring DriftMonitor's per-stream isolation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/sequence.hpp"
#include "linalg/matrix.hpp"

namespace sidis::runtime {

struct SequenceDecoderConfig {
  /// Commit horizon: a window is decided after `lag` successors have been
  /// seen.  0 decodes greedily (commit on push, conditioned on the previous
  /// commit); a lag >= the stream length reproduces offline Viterbi exactly.
  std::size_t lag = 8;
  /// Weight on the transition prior (0 = per-window argmax of the posterior).
  double prior_weight = 1.0;
  /// kOk windows whose sequence confidence falls below this are downgraded
  /// to kDegraded -- the lattice's ambiguity feeds the existing reject
  /// vocabulary.  0 never fires (confidences are >= 0).
  double min_confidence = 0.0;
  /// kRejected windows whose sequence confidence reaches this are upgraded
  /// to kDegraded: the lattice is near-certain about a window the per-window
  /// gates threw away.  +inf (default) never repairs.
  double repair_confidence = std::numeric_limits<double>::infinity();
};

/// One smoothed emission of the decoder.
struct SmoothedWindow {
  core::Disassembly value;
  /// The per-window class before smoothing (== value.class_idx when the
  /// decoder agreed with the classifier).
  std::size_t raw_class = 0;
  /// True when the decoder rewrote the class.
  bool smoothed = false;
  /// True when every frontier path already passed through the committed
  /// state at commit time -- the decision is provably what offline Viterbi,
  /// conditioned on the previously emitted prefix, would pick no matter what
  /// arrives later (so an all-converged prefix equals the unconditioned
  /// offline decode).  Pass-throughs and flush() tails (which see the whole
  /// remaining stream) are always converged.
  bool converged = true;
  /// Max-marginal margin of the committed state at this position: best path
  /// score through it minus the best through any other state.  +inf for
  /// pass-throughs and single-class supports.
  double confidence = std::numeric_limits<double>::infinity();
};

class SequenceDecoder {
 public:
  /// `classes` is the ascending posterior support the emissions are indexed
  /// by (core::HierarchicalDisassembler::posterior_classes()); `prior` must
  /// cover every class in it.  Throws std::invalid_argument on an empty
  /// support, a null prior, a support the prior does not cover, or a
  /// weighted prior that leaves no exchange margin (exchange_margin() <= 0),
  /// with the spreads in the message.
  SequenceDecoder(std::vector<std::size_t> classes,
                  std::shared_ptr<const core::TransitionPrior> prior,
                  SequenceDecoderConfig config = {});

  /// Feeds the next in-order window.  Emissions become available on poll()
  /// once decided (a pass-through or a commit beyond the lag horizon).
  void push(core::Disassembly window);

  /// Next decided window, FIFO in push order; nullopt when everything is
  /// still inside the lag horizon.
  std::optional<SmoothedWindow> poll();

  /// Decides the remaining lattice with a full offline pass (stream end) and
  /// returns every not-yet-polled emission in order.  Resets the lattice; the
  /// decoder can be reused for a fresh stream afterwards.
  std::vector<SmoothedWindow> flush();

  /// Windows pushed but not yet emitted through poll().
  std::size_t pending() const { return lattice_.size() + out_.size(); }

  const std::vector<std::size_t>& classes() const { return classes_; }
  const SequenceDecoderConfig& config() const { return config_; }

  /// Windows whose class the decoder has rewritten so far.
  std::uint64_t smoothed_count() const { return smoothed_count_; }

  /// M = kGroupReach - log 24 - prior_weight * (row spread + column spread)
  /// of the prior over the support, in nats.  A class the scored walk
  /// skipped sits more than kGroupReach - log 24 below its window's best
  /// class (24 is the largest Table-2 group), and swapping one for the other
  /// moves a path score by at most the weighted spreads.  So with M > 0 no
  /// Viterbi path, backpointer or converged flag passes through a skipped
  /// class, before or after the skip, and a confidence moves only where it
  /// is >= M both ways.  Always > 0 on a constructed decoder.
  double exchange_margin() const { return exchange_margin_; }

 private:
  /// FIFO over reused slots: pop_front() keeps a slot's buffers for the next
  /// push_back(), so a lattice at its steady depth allocates nothing.
  template <typename T>
  class Ring {
   public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T& operator[](std::size_t i) { return slots_[(head_ + i) % slots_.size()]; }
    const T& operator[](std::size_t i) const {
      return slots_[(head_ + i) % slots_.size()];
    }
    T& front() { return (*this)[0]; }
    T& back() { return (*this)[size_ - 1]; }
    /// The slot behind the back, holding whatever a popped element left.
    T& push_back() {
      if (size_ == slots_.size()) {
        std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                    slots_.end());
        head_ = 0;
        slots_.emplace_back();
      }
      ++size_;
      return back();
    }
    void pop_front() {
      head_ = (head_ + 1) % slots_.size();
      --size_;
    }
    void clear() { head_ = size_ = 0; }

   private:
    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Node {
    /// The pushed window; its log_posterior is the emission row (support
    /// order).  Moved out on emission.
    core::Disassembly window;
    linalg::Vector delta;              ///< Viterbi scores, max-normalized per step
    std::vector<std::size_t> backptr;  ///< empty at the lattice front
    linalg::Vector beta;               ///< best suffix score per state (commit/flush)
    /// Ascending states within support_reach_ of the best emission: the
    /// only states a recursion step reduces over.  Reserved to n once.
    std::vector<std::size_t> support;
  };

  /// Extends the recursion: fills node.delta/backptr from `prev` (nullptr at
  /// the lattice front).
  void advance(Node& node, const Node* prev);
  /// Fills every node's beta with the best score of the lattice suffix after
  /// it, per state (0 at the frontier).
  void backward_pass();
  /// Commits the front window off a full backtrace and rebases the rest of
  /// the lattice on the committed state.
  void commit_front();
  /// Decides the whole remaining lattice offline into out_ and ends the
  /// stream (the next push starts unconditioned).
  void finish();
  /// Moves the node's window into an emission record given its committed
  /// state index and max-marginal confidence.
  void emit(Node& node, std::size_t state, double confidence, bool converged);

  /// Reads the lattice (scores, backpointers, supports), so the
  /// decode-equivalence tests can hold every node to a dense recursion.
  friend class SequenceDecoderProbe;

  std::vector<std::size_t> classes_;
  SequenceDecoderConfig config_;
  linalg::Matrix log_trans_;    ///< prior_weight * log P(b|a) over the support
  linalg::Matrix log_trans_t_;  ///< its transpose: rows are destination states
  Ring<Node> lattice_;
  Ring<SmoothedWindow> out_;
  linalg::Vector snapshot_delta_;  ///< a rebased node's pre-rebase scores
  std::vector<std::size_t> snapshot_backptr_;  ///< ... and backpointers
  std::vector<std::size_t> path_;  ///< finish()'s backtrace
  /// State committed just before the lattice emptied (lag 0 commits every
  /// push), so the next window still chains from it.  Reset at stream breaks
  /// (flush, pass-through) -- a fresh stream starts unconditioned.
  std::optional<std::size_t> last_committed_;
  std::uint64_t smoothed_count_ = 0;
  double exchange_margin_ = 0.0;
  /// Δ_s: row spread + column spread of the weighted prior + 37 nats.  A
  /// state whose emission lies more than this below its window's best is on
  /// no Viterbi path and is no step's argmax.
  double support_reach_ = 0.0;
};

}  // namespace sidis::runtime
