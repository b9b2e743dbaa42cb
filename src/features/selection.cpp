#include "features/selection.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "runtime/parallel_for.hpp"

namespace sidis::features {

namespace {

/// Streaming mean/variance accumulator over grid-shaped matrices.
struct MomentAccumulator {
  linalg::Matrix sum;
  linalg::Matrix sum_sq;
  std::size_t n = 0;

  void init(std::size_t rows, std::size_t cols) {
    sum = linalg::Matrix(rows, cols, 0.0);
    sum_sq = linalg::Matrix(rows, cols, 0.0);
    n = 0;
  }
  void add(const linalg::Matrix& m) {
    for (std::size_t i = 0; i < m.data().size(); ++i) {
      sum.data()[i] += m.data()[i];
      sum_sq.data()[i] += m.data()[i] * m.data()[i];
    }
    ++n;
  }
  stats::MomentMaps finish(double min_var) const {
    if (n == 0) throw std::logic_error("MomentAccumulator: no samples");
    stats::MomentMaps out{sum, sum};
    const double nn = static_cast<double>(n);
    for (std::size_t i = 0; i < sum.data().size(); ++i) {
      const double mean = sum.data()[i] / nn;
      out.mean.data()[i] = mean;
      double var = 0.0;
      if (n > 1) {
        var = (sum_sq.data()[i] - nn * mean * mean) / (nn - 1.0);
      }
      out.var.data()[i] = std::max(var, min_var);
    }
    return out;
  }
};

}  // namespace

ClassMoments compute_class_moments(const dsp::Cwt& cwt, const sim::TraceSet& traces,
                                   double min_var, std::size_t workers) {
  if (traces.empty()) throw std::invalid_argument("compute_class_moments: no traces");
  const std::size_t rows = cwt.num_scales();
  const std::size_t cols = traces.front().samples.size();
  for (const sim::Trace& t : traces) {
    if (t.samples.size() != cols) {
      throw std::invalid_argument("compute_class_moments: inconsistent trace length");
    }
  }

  MomentAccumulator pooled;
  pooled.init(rows, cols);
  std::map<int, std::size_t> program_slot;
  std::vector<MomentAccumulator> per_program;
  std::vector<int> ids;

  // Scalograms are computed in fixed-size windows, one parallel_for index
  // per lane (each lane strides the window with its own CWT workspace),
  // then accumulated sequentially in trace order.  The summation order
  // therefore never depends on the worker count, so the moments are
  // bit-identical at 1 and N workers; the window also caps peak memory at
  // kWindow scalograms.
  constexpr std::size_t kWindow = 64;
  const std::size_t lanes =
      runtime::resolve_workers(workers, std::min(kWindow, traces.size()));
  std::vector<dsp::CwtWorkspace> ws(lanes);
  std::vector<dsp::Scalogram> window(std::min(kWindow, traces.size()));

  for (std::size_t base = 0; base < traces.size(); base += kWindow) {
    const std::size_t count = std::min(kWindow, traces.size() - base);
    runtime::parallel_for(lanes, lanes, [&](std::size_t lane) {
      for (std::size_t i = lane; i < count; i += lanes) {
        window[i] = cwt.transform(traces[base + i].samples, ws[lane]);
      }
    });
    for (std::size_t i = 0; i < count; ++i) {
      const sim::Trace& t = traces[base + i];
      pooled.add(window[i]);
      const auto [it, inserted] = program_slot.try_emplace(t.meta.program_id,
                                                           per_program.size());
      if (inserted) {
        per_program.emplace_back();
        per_program.back().init(rows, cols);
        ids.push_back(t.meta.program_id);
      }
      per_program[it->second].add(window[i]);
    }
  }

  ClassMoments out;
  out.pooled = pooled.finish(min_var);
  out.program_ids = ids;
  out.trace_count = pooled.n;
  out.per_program.reserve(per_program.size());
  for (const auto& acc : per_program) {
    out.per_program.push_back(acc.finish(min_var));
    out.per_program_counts.push_back(acc.n);
  }
  return out;
}

linalg::Matrix within_class_kl_map(const ClassMoments& moments) {
  if (moments.per_program.size() < 2) {
    throw std::invalid_argument("within_class_kl_map: need >= 2 programs");
  }
  const std::size_t rows = moments.pooled.mean.rows();
  const std::size_t cols = moments.pooled.mean.cols();
  linalg::Matrix out(rows, cols, 0.0);
  std::size_t num_pairs = 0;

  // First-order bias of the empirical Gaussian KL when the true divergence
  // vanishes: E[KL(p_hat||q_hat)] ~ 3/(2 n_q) + 1/(2 n_p).
  const auto bias = [&](std::size_t a, std::size_t b) {
    const double np = static_cast<double>(moments.per_program_counts[a]);
    const double nq = static_cast<double>(moments.per_program_counts[b]);
    return 1.5 / nq + 0.5 / np;
  };

  const auto accumulate = [&](std::size_t a, std::size_t b) {
    const linalg::Matrix map =
        stats::kl_map_from_moments(moments.per_program[a], moments.per_program[b]);
    const double debias = bias(a, b);
    for (std::size_t i = 0; i < out.data().size(); ++i) out.data()[i] += map.data()[i] - debias;
    ++num_pairs;
  };

  for (std::size_t a = 0; a < moments.per_program.size(); ++a) {
    for (std::size_t b = a + 1; b < moments.per_program.size(); ++b) {
      accumulate(a, b);
      accumulate(b, a);  // directional KL: check both ways
    }
  }
  const double inv = 1.0 / static_cast<double>(num_pairs);
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    out.data()[i] = std::max(out.data()[i] * inv, 0.0);
  }
  return out;
}

linalg::Matrix between_class_kl_map(const ClassMoments& a, const ClassMoments& b) {
  return stats::kl_map_from_moments(a.pooled, b.pooled);
}

double within_class_noise_floor(const ClassMoments& moments) {
  const std::size_t programs = moments.per_program_counts.size();
  if (programs < 2) return 0.0;
  double mean_bias = 0.0;
  for (std::size_t p = 0; p < programs; ++p) {
    mean_bias += 2.0 / static_cast<double>(moments.per_program_counts[p]);
  }
  mean_bias /= static_cast<double>(programs);
  return mean_bias / std::sqrt(static_cast<double>(programs - 1));
}

std::vector<std::uint8_t> nvp_mask(const linalg::Matrix& within_map, double kl_th) {
  std::vector<std::uint8_t> mask(within_map.data().size());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = within_map.data()[i] < kl_th ? 1 : 0;
  }
  return mask;
}

std::vector<stats::GridPoint> dnvp(const linalg::Matrix& between_map,
                                   const std::vector<std::uint8_t>& mask_a,
                                   const std::vector<std::uint8_t>& mask_b,
                                   std::size_t count) {
  if (mask_a.size() != between_map.data().size() ||
      mask_b.size() != between_map.data().size()) {
    throw std::invalid_argument("dnvp: mask/grid size mismatch");
  }
  std::vector<stats::GridPoint> peaks = stats::local_maxima_2d(between_map);
  std::vector<stats::GridPoint> eligible;
  eligible.reserve(peaks.size());
  const std::size_t cols = between_map.cols();
  for (const stats::GridPoint& p : peaks) {
    const std::size_t idx = p.j * cols + p.k;
    if (mask_a[idx] && mask_b[idx]) eligible.push_back(p);
  }
  return stats::top_k(std::move(eligible), count);
}

std::vector<stats::GridPoint> unify_points(
    const std::vector<std::vector<stats::GridPoint>>& per_pair) {
  std::vector<stats::GridPoint> all;
  for (const auto& pts : per_pair) all.insert(all.end(), pts.begin(), pts.end());
  std::sort(all.begin(), all.end(), [](const stats::GridPoint& a, const stats::GridPoint& b) {
    if (a.value != b.value) return a.value > b.value;
    if (a.j != b.j) return a.j < b.j;
    return a.k < b.k;
  });
  // Hash-set dedup on the (j, k) coordinate keeps this linear; iterating the
  // sorted list preserves the KL-ranked (value-descending) order.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(all.size());
  std::vector<stats::GridPoint> out;
  out.reserve(all.size());
  for (const stats::GridPoint& p : all) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p.j) << 32) |
        (static_cast<std::uint64_t>(p.k) & 0xffffffffULL);
    if (seen.insert(key).second) out.push_back(p);
  }
  return out;
}

}  // namespace sidis::features
