#include "features/gather_plan.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace sidis::features {

GatherPlan::GatherPlan(std::span<const FeaturePipeline* const> pipelines) {
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

  // Every point once, (scale, time)-sorted, marked when slot 0 reads it
  // (slot 0 is visited first); slot 0's points make the shared prefix.
  std::map<dsp::CwtPoint, bool> in_shared;
  for (std::size_t s = 0; s < pipelines.size(); ++s) {
    for (const stats::GridPoint& g : points(s)) in_shared.try_emplace({g.j, g.k}, s == 0);
  }
  for (const bool shared : {true, false}) {
    for (const auto& [pt, mine] : in_shared) {
      if (mine == shared) layout_.entries.push_back(pt);
    }
    if (shared) layout_.shared = layout_.entries.size();
  }
  std::map<dsp::CwtPoint, std::size_t> index;
  for (std::size_t e = 0; e < layout_.entries.size(); ++e) index.emplace(layout_.entries[e], e);
  layout_.rows.resize(pipelines.size());
  layout_.own.resize(pipelines.size());
  for (std::size_t s = 0; s < pipelines.size(); ++s) {
    std::vector<std::size_t>& rows = layout_.rows[s];
    for (const stats::GridPoint& g : points(s)) rows.push_back(index.at({g.j, g.k}));
    std::vector<std::size_t>& own = layout_.own[s];
    for (const std::size_t r : rows) {
      if (r >= layout_.shared) own.push_back(r);
    }
    std::sort(own.begin(), own.end());
    own.erase(std::unique(own.begin(), own.end()), own.end());
  }
}

const GatherPlan::Layout& GatherPlan::layout() const {
  if (slots() == 0) throw std::logic_error("GatherPlan: empty plan");
  return layout_;
}

void GatherBatch::begin(const GatherPlan& plan,
                        std::span<const std::vector<double>* const> windows) {
  if (windows.empty()) throw std::invalid_argument("GatherBatch: empty bucket");
  plan_ = &plan;
  windows_ = windows;
  n_ = windows.front()->size();
  width_ = windows.size();
  layout_ = &plan.layout();
  const std::size_t shared = layout_->shared;
  const std::span<const dsp::CwtPoint> points(layout_->entries.data(), shared);
  g_.resize(layout_->entries.size() * width_);
  dsp::Cwt::marshal(windows, soa_);
  plan.cwt().gather_soa(soa_, n_, width_, points, {g_.data(), shared * width_});
}

void GatherBatch::gather_own(std::size_t slot, std::span<const std::size_t> lanes) {
  const std::vector<std::size_t>& own = layout_->own.at(slot);
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
