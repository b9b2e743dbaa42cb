#include "features/gather_plan.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace sidis::features {

GatherPlan::GatherPlan(std::span<const FeaturePipeline* const> pipelines,
                       std::span<const std::size_t> tiers) {
  if (pipelines.size() != tiers.size()) {
    throw std::invalid_argument("GatherPlan: one tier per slot");
  }
  const FeaturePipeline* first = nullptr;
  for (const FeaturePipeline* p : pipelines) {
    if (p == nullptr) continue;
    if (first == nullptr) {
      first = p;
    } else if (p->config().cwt != first->config().cwt ||
               p->config().per_trace_normalization !=
                   first->config().per_trace_normalization) {
      throw std::invalid_argument(
          "GatherPlan: pipelines disagree on the CWT or the normalization");
    }
  }
  if (first != nullptr) {
    cwt_ = first->cwt();
    normalize_ = first->config().per_trace_normalization;
  }
  const auto points = [&](std::size_t s) {
    return pipelines[s] == nullptr ? std::span<const stats::GridPoint>{}
                                   : std::span(pipelines[s]->unified_points());
  };

  // Each entry's tier: the lowest tier of a slot reading it.
  std::map<dsp::CwtPoint, std::size_t> index;
  for (std::size_t s = 0; s < pipelines.size(); ++s) {
    for (const stats::GridPoint& g : points(s)) {
      const auto [it, fresh] = index.try_emplace({g.j, g.k}, tiers[s]);
      if (!fresh) it->second = std::min(it->second, tiers[s]);
    }
  }
  std::vector<std::pair<std::size_t, dsp::CwtPoint>> order;
  order.reserve(index.size());
  for (const auto& [pt, tier] : index) order.emplace_back(tier, pt);
  std::sort(order.begin(), order.end());

  const std::size_t num_tiers =
      tiers.empty() ? 0 : *std::max_element(tiers.begin(), tiers.end()) + 1;
  layout_.tier_end.assign(num_tiers, 0);
  for (std::size_t e = 0; e < order.size(); ++e) {
    layout_.entries.push_back(order[e].second);
    index[order[e].second] = e;
    for (std::size_t t = order[e].first; t < num_tiers; ++t) layout_.tier_end[t] = e + 1;
  }
  layout_.rows.resize(pipelines.size());
  layout_.own.resize(pipelines.size());
  for (std::size_t s = 0; s < pipelines.size(); ++s) {
    std::vector<std::size_t>& rows = layout_.rows[s];
    for (const stats::GridPoint& g : points(s)) rows.push_back(index.at({g.j, g.k}));
    std::vector<std::size_t> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::size_t t = 0; t < num_tiers; ++t) {
      const auto past = std::lower_bound(sorted.begin(), sorted.end(), layout_.tier_end[t]);
      layout_.own[s].emplace_back(past, sorted.end());
    }
  }
}

const GatherPlan::Layout& GatherPlan::layout() const {
  if (slots() == 0) throw std::logic_error("GatherPlan: empty plan");
  return layout_;
}

void GatherBatch::begin(const GatherPlan& plan,
                        std::span<const std::vector<double>* const> windows,
                        std::size_t tier) {
  if (windows.empty()) throw std::invalid_argument("GatherBatch: empty bucket");
  plan_ = &plan;
  windows_ = windows;
  n_ = windows.front()->size();
  width_ = windows.size();
  layout_ = &plan.layout();
  // A plan without the asked-for tier gathers everything it has up front.
  const std::size_t tiers = layout_->tier_end.size();
  tier_ = std::min(tier, tiers == 0 ? 0 : tiers - 1);
  const std::size_t shared = tiers == 0 ? 0 : layout_->tier_end[tier_];
  const std::span<const dsp::CwtPoint> points(layout_->entries.data(), shared);
  g_.resize(layout_->entries.size() * width_);
  dsp::Cwt::marshal(windows, soa_);
  plan.cwt().gather_soa(soa_, n_, width_, points, {g_.data(), shared * width_});
}

void GatherBatch::gather_own(std::size_t slot, std::span<const std::size_t> lanes) {
  const std::vector<std::size_t>& own = layout_->own.at(slot).at(tier_);
  if (own.empty()) return;
  points_.resize(own.size());
  for (std::size_t r = 0; r < own.size(); ++r) points_[r] = layout_->entries[own[r]];
  const std::size_t m = lanes.size();
  own_.resize(own.size() * m);
  if (m == width_) {
    plan_->cwt().gather_soa(soa_, n_, m, points_, own_);
  } else {
    // The sub-batch's columns of the bucket block, row-contiguous copies.
    lane_soa_.resize(n_ * m);
    for (std::size_t t = 0; t < n_; ++t) {
      const double* __restrict src = soa_.data() + t * width_;
      double* __restrict dst = lane_soa_.data() + t * m;
      for (std::size_t i = 0; i < m; ++i) dst[i] = src[lanes[i]];
    }
    plan_->cwt().gather_soa(lane_soa_, n_, m, points_, own_);
  }
  for (std::size_t r = 0; r < own.size(); ++r) {
    const double* src = own_.data() + r * m;
    double* dst = g_.data() + own[r] * width_;
    for (std::size_t i = 0; i < m; ++i) dst[lanes[i]] = src[i];
  }
}

linalg::Matrix GatherBatch::features(std::size_t slot, const FeaturePipeline& pipeline,
                                     std::span<const std::size_t> lanes,
                                     std::size_t components) {
  gather_own(slot, lanes);
  return pipeline.project_soa(g_.data(), width_, layout_->rows.at(slot),
                              lanes.size() == width_ ? std::span<const std::size_t>{}
                                                     : lanes,
                              components);
}

}  // namespace sidis::features
