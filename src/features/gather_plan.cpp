#include "features/gather_plan.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace sidis::features {

struct GatherPlan::Routed {
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::shared_ptr<const Layout>>> by_length;
};

GatherPlan::GatherPlan(std::span<const FeaturePipeline* const> pipelines,
                       std::span<const std::size_t> tiers)
    : routed_(std::make_shared<Routed>()) {
  if (pipelines.size() != tiers.size()) {
    throw std::invalid_argument("GatherPlan: one tier per slot");
  }
  const FeaturePipeline* first = nullptr;
  for (std::size_t s = 0; s < pipelines.size(); ++s) {
    const FeaturePipeline* p = pipelines[s];
    js_.emplace_back();
    ks_.emplace_back();
    if (p == nullptr) continue;
    if (first == nullptr) {
      first = p;
    } else if (p->config().cwt != first->config().cwt ||
               p->config().per_trace_normalization !=
                   first->config().per_trace_normalization) {
      throw std::invalid_argument(
          "GatherPlan: pipelines disagree on the CWT or the normalization");
    }
    for (const stats::GridPoint& g : p->unified_points()) {
      js_.back().push_back(g.j);
      ks_.back().push_back(g.k);
    }
  }
  if (first != nullptr) {
    cwt_ = first->cwt();
    normalize_ = first->config().per_trace_normalization;
  }
  tiers_.assign(tiers.begin(), tiers.end());
  num_tiers_ = tiers_.empty() ? 0 : *std::max_element(tiers_.begin(), tiers_.end()) + 1;
  direct_ = build({});
}

std::shared_ptr<const GatherPlan::Layout> GatherPlan::build(
    const std::vector<std::vector<std::uint8_t>>& routes) const {
  const auto point = [&](std::size_t s, std::size_t p) {
    const std::size_t j = js_[s][p];
    return dsp::CwtPoint{j, ks_[s][p], !routes.empty() && routes[s][j] != 0};
  };
  // Each entry's tier: the lowest tier of a slot reading it.
  std::map<dsp::CwtPoint, std::size_t> index;
  for (std::size_t s = 0; s < slots(); ++s) {
    for (std::size_t p = 0; p < js_[s].size(); ++p) {
      const auto [it, fresh] = index.try_emplace(point(s, p), tiers_[s]);
      if (!fresh) it->second = std::min(it->second, tiers_[s]);
    }
  }
  std::vector<std::pair<std::size_t, dsp::CwtPoint>> order;
  order.reserve(index.size());
  for (const auto& [pt, tier] : index) order.emplace_back(tier, pt);
  std::sort(order.begin(), order.end());

  auto out = std::make_shared<Layout>();
  out->tier_end.assign(num_tiers_, 0);
  for (std::size_t e = 0; e < order.size(); ++e) {
    out->entries.push_back(order[e].second);
    index[order[e].second] = e;
    for (std::size_t t = order[e].first; t < num_tiers_; ++t) out->tier_end[t] = e + 1;
  }
  out->rows.resize(slots());
  out->own.resize(slots());
  for (std::size_t s = 0; s < slots(); ++s) {
    std::vector<std::size_t>& rows = out->rows[s];
    for (std::size_t p = 0; p < js_[s].size(); ++p) rows.push_back(index.at(point(s, p)));
    std::vector<std::size_t> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::size_t t = 0; t < num_tiers_; ++t) {
      const auto past = std::lower_bound(sorted.begin(), sorted.end(), out->tier_end[t]);
      out->own[s].emplace_back(past, sorted.end());
    }
  }
  return out;
}

const GatherPlan::Layout& GatherPlan::layout(std::size_t n) const {
  if (direct_ == nullptr) throw std::logic_error("GatherPlan: empty plan");
  if (cwt_.config().backend == dsp::CwtBackend::kDirect || n == 0) return *direct_;
  std::lock_guard lock(routed_->mutex);
  for (const auto& [length, layout] : routed_->by_length) {
    if (length == n) return *layout;
  }
  std::vector<std::vector<std::uint8_t>> routes;
  bool spectral = false;
  for (const std::vector<std::size_t>& js : js_) {
    routes.push_back(cwt_.sparse_routes(js, n));
    spectral = spectral || std::find(routes.back().begin(), routes.back().end(), 1) !=
                               routes.back().end();
  }
  routed_->by_length.emplace_back(n, spectral ? build(routes) : direct_);
  return *routed_->by_length.back().second;
}

void GatherBatch::begin(const GatherPlan& plan,
                        std::span<const std::vector<double>* const> windows,
                        std::size_t tier) {
  if (windows.empty()) throw std::invalid_argument("GatherBatch: empty bucket");
  plan_ = &plan;
  windows_ = windows;
  n_ = windows.front()->size();
  width_ = windows.size();
  layout_ = &plan.layout(n_);
  // A plan without the asked-for tier gathers everything it has up front.
  const std::size_t tiers = layout_->tier_end.size();
  tier_ = std::min(tier, tiers == 0 ? 0 : tiers - 1);
  const std::size_t shared = tiers == 0 ? 0 : layout_->tier_end[tier_];
  const std::span<const dsp::CwtPoint> points(layout_->entries.data(), shared);
  g_.resize(layout_->entries.size() * width_);
  if (width_ == 1) {
    plan.cwt().gather(*windows.front(), points, {g_.data(), shared}, ws_);
    return;
  }
  dsp::Cwt::marshal(windows, soa_);
  plan.cwt().gather_soa(soa_, n_, width_, points, {g_.data(), shared * width_},
                        batch_ws_);
}

void GatherBatch::gather_own(std::size_t slot, std::span<const std::size_t> lanes) {
  const std::vector<std::size_t>& own = layout_->own.at(slot).at(tier_);
  if (own.empty()) return;
  points_.resize(own.size());
  for (std::size_t r = 0; r < own.size(); ++r) points_[r] = layout_->entries[own[r]];
  const std::size_t m = lanes.size();
  own_.resize(own.size() * m);
  if (m == 1) {
    plan_->cwt().gather(*windows_[lanes[0]], points_, own_, ws_);
  } else if (m == width_) {
    plan_->cwt().gather_soa(soa_, n_, m, points_, own_, batch_ws_);
  } else {
    // The sub-batch's columns of the bucket block, row-contiguous copies.
    lane_soa_.resize(n_ * m);
    for (std::size_t t = 0; t < n_; ++t) {
      const double* __restrict src = soa_.data() + t * width_;
      double* __restrict dst = lane_soa_.data() + t * m;
      for (std::size_t i = 0; i < m; ++i) dst[i] = src[lanes[i]];
    }
    plan_->cwt().gather_soa(lane_soa_, n_, m, points_, own_, batch_ws_);
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

linalg::Vector GatherBatch::features(std::size_t slot, const FeaturePipeline& pipeline,
                                     std::size_t lane, std::size_t components) {
  gather_own(slot, {&lane, 1});
  return pipeline.project(g_.data() + lane, width_, layout_->rows.at(slot), components);
}

}  // namespace sidis::features
