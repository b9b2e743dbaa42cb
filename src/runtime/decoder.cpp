#include "runtime/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <stdexcept>

#include "avr/grouping.hpp"
#include "linalg/lanes.hpp"

namespace sidis::runtime {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Headroom of the state support's reach over the prior's spreads, about
/// -log DBL_EPSILON: a pruned state trails the window's best by more than
/// this on every path, far beyond any rounding of the recursion's sums.
constexpr double kRoundingNats = 37.0;

/// First index of the maximum (ties break low, matching scored_from_scores).
std::size_t argmax_first(const linalg::Vector& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

void normalize_shift(linalg::Vector& v) {
  const double m = v[argmax_first(v)];
  if (!std::isfinite(m)) return;  // degenerate row; keep as-is
  for (double& x : v) x -= m;
}

/// A log-posterior the lattice can chain through: the support's size, no NaN
/// or +inf (no log-probability is either), and at least one finite entry.
/// Anything else would turn every later score into NaN or -inf.
bool decodable(const linalg::Vector& log_posterior, std::size_t n) {
  if (log_posterior.size() != n) return false;
  bool finite = false;
  for (const double x : log_posterior) {
    if (std::isnan(x) || x == kInf) return false;
    finite = finite || std::isfinite(x);
  }
  return finite;
}

/// Max-marginal margin of `state`: the best path score through it minus the
/// best through any other state (+inf without a finite rival).
double margin(const linalg::Vector& delta, const linalg::Vector& beta,
              std::size_t state) {
  const std::size_t n = delta.size();
  if (n < 2) return kInf;
  double committed = -kInf, runner = -kInf;
  for (std::size_t c = 0; c < n; ++c) {
    const double mm = delta[c] + beta[c];
    if (c == state) {
      committed = mm;
    } else {
      runner = std::max(runner, mm);
    }
  }
  return runner == -kInf ? kInf : committed - runner;
}

// -- max-plus kernels ---------------------------------------------------------
//
// Both kernels put all n DESTINATION states in SIMD lanes and run the
// reduction over a list of source states -- a window's ascending support --
// outermost, in the scalar loop's order, with the scalar loop's strict `>`.
// Every lane therefore performs exactly the additions and comparisons of the
// per-destination scalar loop -- only their interleaving across lanes
// changes -- so results are bit-identical to it, first-index tie break
// included.  Each kernel keeps a register tile of lanes live across the
// whole reduction (see linalg/lanes.hpp for why); lanes left over by the
// tiles run the same arithmetic one at a time.

#ifdef SIDIS_LANE_VEC
namespace lanes = linalg::lane_detail;
typedef std::int64_t IndexVec __attribute__((vector_size(SIDIS_LANE_VEC_BYTES)));
static_assert(sizeof(std::size_t) == sizeof(std::int64_t));

/// Lanes per tile.  The argmax kernel carries a score and an index vector per
/// lane group, the plain max kernel only a score, so it affords twice the
/// lanes within the 16 vector registers of SSE2/AVX.
constexpr std::size_t kArgmaxTile = 8;
constexpr std::size_t kMaxTile = 16;

IndexVec splat_index(std::size_t i) {
  IndexVec v;
  for (std::size_t l = 0; l < lanes::kVecWidth; ++l) v[l] = static_cast<std::int64_t>(i);
  return v;
}

template <std::size_t V>
void argmax_tile(const double* src, const std::size_t* preds, std::size_t count,
                 const double* trans, std::size_t n, std::size_t c0, double* best_out,
                 std::size_t* arg_out) {
  lanes::LaneVec best[V];
  IndexVec arg[V];
  for (std::size_t v = 0; v < V; ++v) {
    best[v] = lanes::splat(-kInf);
    arg[v] = splat_index(preds[0]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = preds[i];
    const lanes::LaneVec d = lanes::splat(src[p]);
    const IndexVec pv = splat_index(p);
    const double* row = trans + p * n + c0;
    for (std::size_t v = 0; v < V; ++v) {
      lanes::LaneVec t;
      std::memcpy(&t, row + v * lanes::kVecWidth, sizeof(t));
      const lanes::LaneVec cand = d + t;
      // The scalar `if (cand > best)` update, spelled so the value half is
      // one max instruction: `next` is that update's result, and it differs
      // from `best` exactly when the update fired (`best` starts at -inf and
      // only ever takes a non-NaN `cand`, and a strictly greater value never
      // compares equal).
      const lanes::LaneVec next = cand > best[v] ? cand : best[v];
      arg[v] = next != best[v] ? pv : arg[v];
      best[v] = next;
    }
  }
  std::memcpy(best_out + c0, best, sizeof(best));
  std::memcpy(arg_out + c0, arg, sizeof(arg));
}

template <std::size_t V>
void max_tile(const double* trans_t, std::size_t n, const std::size_t* srcs,
              std::size_t count, const double* e, const double* beta, std::size_t c0,
              double* out) {
  lanes::LaneVec best[V];
  for (std::size_t v = 0; v < V; ++v) best[v] = lanes::splat(-kInf);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t c2 = srcs[i];
    const lanes::LaneVec ev = lanes::splat(e[c2]);
    const lanes::LaneVec bv = lanes::splat(beta[c2]);
    const double* row = trans_t + c2 * n + c0;
    for (std::size_t v = 0; v < V; ++v) {
      lanes::LaneVec t;
      std::memcpy(&t, row + v * lanes::kVecWidth, sizeof(t));
      const lanes::LaneVec cand = (t + ev) + bv;
      best[v] = cand > best[v] ? cand : best[v];
    }
  }
  std::memcpy(out + c0, best, sizeof(best));
}
#endif  // SIDIS_LANE_VEC

/// Kernel (a), the Viterbi step: for every destination c of the n x n
/// row-major `trans`, best[c] = max over p in preds[0..count) of
/// src[p] + trans(p, c), and arg[c] the first p (in preds order) attaining it
/// -- preds[0] when nothing beats -inf.
void max_plus_argmax(const double* src, const std::size_t* preds, std::size_t count,
                     const double* trans, std::size_t n, double* best,
                     std::size_t* arg) {
  std::size_t c = 0;
#ifdef SIDIS_LANE_VEC
  for (; c + kArgmaxTile <= n; c += kArgmaxTile) {
    argmax_tile<kArgmaxTile / lanes::kVecWidth>(src, preds, count, trans, n, c, best, arg);
  }
  for (; c + lanes::kVecWidth <= n; c += lanes::kVecWidth) {
    argmax_tile<1>(src, preds, count, trans, n, c, best, arg);
  }
#endif
  for (; c < n; ++c) {
    double b = -kInf;
    std::size_t bp = preds[0];
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t p = preds[i];
      const double v = src[p] + trans[p * n + c];
      if (v > b) {
        b = v;
        bp = p;
      }
    }
    best[c] = b;
    arg[c] = bp;
  }
}

/// Kernel (b), the backward (beta) step: for every destination c, out[c] =
/// max over c2 in srcs[0..count) of (trans_t(c2, c) + e[c2]) + beta[c2],
/// with trans_t the n x n transposed transition matrix (so destinations are
/// contiguous) and -inf when nothing beats it.
void max_plus(const double* trans_t, std::size_t n, const std::size_t* srcs,
              std::size_t count, const double* e, const double* beta, double* out) {
  std::size_t c = 0;
#ifdef SIDIS_LANE_VEC
  for (; c + kMaxTile <= n; c += kMaxTile) {
    max_tile<kMaxTile / lanes::kVecWidth>(trans_t, n, srcs, count, e, beta, c, out);
  }
  for (; c + lanes::kVecWidth <= n; c += lanes::kVecWidth) {
    max_tile<1>(trans_t, n, srcs, count, e, beta, c, out);
  }
#endif
  for (; c < n; ++c) {
    double b = -kInf;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c2 = srcs[i];
      const double v = trans_t[c2 * n + c] + e[c2] + beta[c2];
      if (v > b) b = v;
    }
    out[c] = b;
  }
}

}  // namespace

SequenceDecoder::SequenceDecoder(std::vector<std::size_t> classes,
                                 std::shared_ptr<const core::TransitionPrior> prior,
                                 SequenceDecoderConfig config)
    : classes_(std::move(classes)), config_(config) {
  if (classes_.empty()) {
    throw std::invalid_argument("SequenceDecoder: empty class support");
  }
  if (prior == nullptr) {
    throw std::invalid_argument("SequenceDecoder: null transition prior");
  }
  const std::size_t n = classes_.size();
  for (const std::size_t cls : classes_) {
    if (cls >= prior->num_classes()) {
      throw std::invalid_argument(
          "SequenceDecoder: prior does not cover the class support");
    }
  }
  // The transition matrix restricted to the support, weighted once.  Rows are
  // intentionally NOT renormalized over the support: the prior's relative
  // preferences among the profiled classes are what matters, and a constant
  // per-row offset never changes a Viterbi path.  The transpose feeds the
  // backward kernel, whose lanes are source states.
  log_trans_ = linalg::Matrix(n, n);
  log_trans_t_ = linalg::Matrix(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      log_trans_(a, b) =
          config_.prior_weight * prior->log_prob(classes_[a], classes_[b]);
      log_trans_t_(b, a) = log_trans_(a, b);
    }
  }
  // The exchange bound (see exchange_margin()): the largest spread of a row
  // (one source, any two destinations) and of a column (one destination,
  // any two sources) of the weighted prior.
  double row_spread = 0.0, col_spread = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    const auto row = log_trans_.row(a);
    const auto col = log_trans_t_.row(a);
    const auto [row_min, row_max] = std::minmax_element(row.begin(), row.end());
    const auto [col_min, col_max] = std::minmax_element(col.begin(), col.end());
    row_spread = std::max(row_spread, *row_max - *row_min);
    col_spread = std::max(col_spread, *col_max - *col_min);
  }
  const std::span<const int> sizes = avr::expected_group_sizes();
  const double skip_gap = core::HierarchicalDisassembler::kGroupReach -
                          std::log(*std::max_element(sizes.begin(), sizes.end()));
  exchange_margin_ = skip_gap - (row_spread + col_spread);
  if (!(exchange_margin_ > 0.0)) {
    std::ostringstream why;
    why << "SequenceDecoder: the weighted prior's row spread " << row_spread
        << " + column spread " << col_spread << " nats reach the "
        << skip_gap << " nats a skipped group's classes sit below the best class "
        << "(kGroupReach - log 24), so the scored walk's group skip could move "
        << "a decoded label; lower prior_weight or smooth the prior";
    throw std::invalid_argument(why.str());
  }
  // The state support (see decoder.hpp): a state more than the two spreads
  // below its window's best emission loses to the best state on every path,
  // through any predecessor and into any successor.
  support_reach_ = row_spread + col_spread + kRoundingNats;
}

void SequenceDecoder::advance(Node& node, const Node* prev) {
  const std::size_t n = classes_.size();
  const linalg::Vector& emissions = node.window.log_posterior;
  if (prev == nullptr) {
    node.backptr.clear();
    if (last_committed_.has_value()) {
      // The lattice emptied right after a commit (lag 0 does this on every
      // push): the stream continues, so condition on the committed state.
      node.delta.resize(n);
      for (std::size_t c = 0; c < n; ++c) {
        node.delta[c] = log_trans_(*last_committed_, c) + emissions[c];
      }
    } else {
      node.delta.assign(emissions.begin(), emissions.end());
    }
    normalize_shift(node.delta);
    return;
  }
  node.delta.resize(n);
  node.backptr.resize(n);
  max_plus_argmax(prev->delta.data(), prev->support.data(), prev->support.size(),
                  log_trans_.data().data(), n, node.delta.data(), node.backptr.data());
  for (std::size_t c = 0; c < n; ++c) node.delta[c] += emissions[c];
  // Keep scores bounded over unbounded streams; a uniform shift changes no
  // path decision and no confidence margin.
  normalize_shift(node.delta);
}

void SequenceDecoder::backward_pass() {
  const std::size_t n = classes_.size();
  lattice_.back().beta.assign(n, 0.0);
  for (std::size_t t = lattice_.size() - 1; t > 0; --t) {
    const Node& next = lattice_[t];
    Node& cur = lattice_[t - 1];
    cur.beta.resize(n);
    max_plus(log_trans_t_.data().data(), n, next.support.data(), next.support.size(),
             next.window.log_posterior.data(), next.beta.data(), cur.beta.data());
  }
}

void SequenceDecoder::emit(Node& node, std::size_t state, double confidence,
                           bool converged) {
  SmoothedWindow w;
  w.value = std::move(node.window);
  w.raw_class = w.value.class_idx;
  w.confidence = confidence;
  w.converged = converged;
  const std::size_t cls = classes_[state];
  if (cls != w.value.class_idx) {
    w.smoothed = true;
    ++smoothed_count_;
    w.value.class_idx = cls;
    w.value.group = avr::group_of_class(cls);
    // Operand recoveries belong to the raw class; drop the ones the smoothed
    // class has no slot for (a recovery for a slot it does have is kept --
    // the register-level classifier never saw the class anyway).
    if (!avr::class_uses_rd(cls)) w.value.rd.reset();
    if (!avr::class_uses_rr(cls)) w.value.rr.reset();
  }
  if (w.value.verdict == core::Verdict::kOk &&
      confidence < config_.min_confidence) {
    w.value.verdict = core::Verdict::kDegraded;
  }
  if (w.value.verdict == core::Verdict::kRejected &&
      confidence >= config_.repair_confidence) {
    w.value.verdict = core::Verdict::kDegraded;
  }
  out_.push_back() = std::move(w);
}

void SequenceDecoder::commit_front() {
  const std::size_t n = classes_.size();
  const std::size_t depth = lattice_.size();

  // Backtrace from the frontier argmax down to the front.
  std::size_t s = argmax_first(lattice_.back().delta);
  for (std::size_t t = depth - 1; t > 0; --t) s = lattice_[t].backptr[s];
  const std::size_t s0 = s;

  // Max-marginal confidence of the front decision: best full-lattice path
  // through each front state (delta is trivial at the front; beta carries
  // the suffix).
  if (n > 1) backward_pass();
  Node& front = lattice_.front();
  const double confidence = margin(front.delta, front.beta, s0);

  // Converged exactly when every state one step ahead already descends from
  // s0 -- then every extension of the stream must route through s0 here, so
  // the commit is what offline Viterbi conditioned on the emitted prefix
  // would pick no matter what arrives later.
  const bool fused =
      depth > 1 && std::all_of(lattice_[1].backptr.begin(),
                               lattice_[1].backptr.end(),
                               [&](std::size_t p) { return p == s0; });
  const bool converged = fused || n == 1;

  const double base = front.delta[s0];
  emit(front, s0, confidence, converged);
  lattice_.pop_front();
  if (lattice_.empty()) {
    last_committed_ = s0;  // the next push chains from here
    return;
  }

  // Rebase: condition the new front on the committed state, so emitted
  // decisions always chain into a connected path.  When the lattice already
  // fused through s0 the reconditioned scores are what advance() computed,
  // so nothing needs recomputing.
  Node& head = lattice_.front();
  if (!fused) {
    const linalg::Vector& emissions = head.window.log_posterior;
    for (std::size_t c = 0; c < n; ++c) {
      head.delta[c] = base + log_trans_(s0, c) + emissions[c];
    }
    normalize_shift(head.delta);
    for (std::size_t t = 1; t < lattice_.size(); ++t) {
      Node& cur = lattice_[t];
      // Keep the pre-rebase scores in the snapshot's buffers (a swap, no
      // copy) and recompute into the snapshot's old ones.
      cur.delta.swap(snapshot_delta_);
      cur.backptr.swap(snapshot_backptr_);
      advance(cur, &lattice_[t - 1]);
      // Downstream of the first unchanged node nothing can differ.
      if (cur.delta == snapshot_delta_ && cur.backptr == snapshot_backptr_) break;
    }
  }
  head.backptr.clear();
}

void SequenceDecoder::push(core::Disassembly window) {
  if (!decodable(window.log_posterior, classes_.size())) {
    // No posterior to decode on: finish the lattice and pass the window
    // through untouched (plain classify() results, foreign supports,
    // malformed rows).  The chain is broken -- whatever follows starts a
    // fresh segment.
    finish();
    SmoothedWindow w;
    w.value = std::move(window);
    w.raw_class = w.value.class_idx;
    out_.push_back() = std::move(w);
    return;
  }
  Node& node = lattice_.push_back();
  node.window = std::move(window);
  // The window's support, inclusive at the boundary.  Reserving n up front
  // keeps a reused slot from reallocating when a later window's support is
  // wider than any it held before.
  const linalg::Vector& emissions = node.window.log_posterior;
  const double floor = emissions[argmax_first(emissions)] - support_reach_;
  node.support.reserve(emissions.size());
  node.support.clear();
  for (std::size_t c = 0; c < emissions.size(); ++c) {
    if (emissions[c] >= floor) node.support.push_back(c);
  }
  advance(node, lattice_.size() == 1 ? nullptr : &lattice_[lattice_.size() - 2]);
  if (lattice_.size() > config_.lag) commit_front();
}

std::optional<SmoothedWindow> SequenceDecoder::poll() {
  if (out_.empty()) return std::nullopt;
  SmoothedWindow w = std::move(out_.front());
  out_.pop_front();
  return w;
}

void SequenceDecoder::finish() {
  if (!lattice_.empty()) {
    const std::size_t depth = lattice_.size();
    // Offline decode of the tail: exact Viterbi over what remains (already
    // conditioned on the last committed state via the rebase).
    std::vector<std::size_t>& path = path_;
    path.resize(depth);
    std::size_t s = argmax_first(lattice_.back().delta);
    path[depth - 1] = s;
    for (std::size_t t = depth - 1; t > 0; --t) {
      s = lattice_[t].backptr[s];
      path[t - 1] = s;
    }
    // Suffix scores for per-window max-marginal confidence.
    if (classes_.size() > 1) backward_pass();
    for (std::size_t t = 0; t < depth; ++t) {
      Node& node = lattice_[t];
      emit(node, path[t], margin(node.delta, node.beta, path[t]), /*converged=*/true);
    }
    lattice_.clear();
  }
  last_committed_.reset();  // the stream ends here; what follows starts fresh
}

std::vector<SmoothedWindow> SequenceDecoder::flush() {
  finish();
  std::vector<SmoothedWindow> result;
  result.reserve(out_.size());
  for (std::size_t i = 0; i < out_.size(); ++i) result.push_back(std::move(out_[i]));
  out_.clear();
  return result;
}

}  // namespace sidis::runtime
