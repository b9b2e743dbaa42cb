#include "runtime/drift.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sidis::runtime {

namespace {

/// Variance floor: features the training corpus held (numerically) constant
/// carry no drift information at this scale and must not divide to infinity.
constexpr double kVarFloor = 1e-12;

}  // namespace

std::string to_string(DriftTrigger trigger) {
  switch (trigger) {
    case DriftTrigger::kFeatureShift: return "feature_shift";
    case DriftTrigger::kFeatureSpread: return "feature_spread";
    case DriftTrigger::kRejectRate: return "reject_rate";
  }
  return "unknown";
}

DriftMonitor::DriftMonitor(std::shared_ptr<const core::HierarchicalDisassembler> model,
                           DriftConfig config)
    : model_(std::move(model)), config_(config) {
  if (model_ == nullptr || !model_->has_training_moments()) {
    throw std::invalid_argument(
        "DriftMonitor: model carries no training moments");
  }
  const core::FeatureMoments& m = model_->training_moments();
  train_mean_ = m.mean;
  train_var_ = m.variance;
  ewma_mean_ = train_mean_;
  ewma_var_ = train_var_;
}

void DriftMonitor::observe(const sim::Trace& trace, const core::Disassembly& result) {
  observe_features(model_->monitor_features(trace),
                   result.verdict == core::Verdict::kRejected);
}

void DriftMonitor::observe_features(const linalg::Vector& features, bool rejected) {
  if (features.size() != train_mean_.size()) {
    throw std::invalid_argument("DriftMonitor: feature dimension mismatch");
  }
  // One non-finite entry folded into the EWMA would leave both statistics
  // NaN for good, and no comparison with a threshold holds for NaN: such a
  // vector skips the moment estimates (the window still counts below).
  const bool finite = std::all_of(features.begin(), features.end(),
                                  [](double f) { return std::isfinite(f); });
  if (finite) {
    const double a = config_.alpha;
    for (std::size_t i = 0; i < features.size(); ++i) {
      // Classic EWMA mean/variance pair: the variance update uses the
      // residual against the *previous* mean, which keeps it unbiased to
      // first order.
      const double residual = features[i] - ewma_mean_[i];
      ewma_mean_[i] += a * residual;
      ewma_var_[i] = (1.0 - a) * (ewma_var_[i] + a * residual * residual);
    }
  } else {
    ++nonfinite_skipped_;
  }
  reject_rate_ += config_.reject_alpha * ((rejected ? 1.0 : 0.0) - reject_rate_);
  ++observations_;
  ++since_rebase_;
  recompute_scores();

  if (since_rebase_ <= config_.warmup) {
    streak_ = 0;
    return;
  }
  DriftTrigger trigger = DriftTrigger::kFeatureShift;
  bool triggered = false;
  if (z_rms_ >= config_.z_threshold) {
    triggered = true;
    trigger = DriftTrigger::kFeatureShift;
  } else if (symmetric_kl_ >= config_.kl_threshold) {
    triggered = true;
    trigger = DriftTrigger::kFeatureSpread;
  } else if (reject_rate_ >= config_.reject_rate_threshold) {
    triggered = true;
    trigger = DriftTrigger::kRejectRate;
  }
  if (!triggered) {
    streak_ = 0;
    return;
  }
  ++streak_;
  if (streak_ < config_.consecutive) return;
  // Cooldown: warmup observations after a rebase double as the event
  // separation -- an event only fires when cooldown observations have
  // passed since the previous one.
  if (pending_.has_value()) return;
  if (events_raised_ > 0 && since_rebase_ < config_.cooldown) return;
  DriftEvent event;
  event.ordinal = events_raised_++;
  event.observation = observations_;
  event.trigger = trigger;
  event.z_rms = z_rms_;
  event.symmetric_kl = symmetric_kl_;
  event.reject_rate = reject_rate_;
  pending_ = event;
  // Restart the separation clock without touching the statistics: if drift
  // persists un-recalibrated, the next event fires one cooldown later.
  since_rebase_ = config_.warmup;
  streak_ = 0;
}

void DriftMonitor::recompute_scores() {
  // Stationary variance of an EWMA over iid draws: var * alpha / (2 - alpha).
  const double shrink = config_.alpha / (2.0 - config_.alpha);
  double z_sq_sum = 0.0;
  double kl_sum = 0.0;
  const std::size_t n = train_mean_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double vq = std::max(train_var_[i], kVarFloor);
    const double vp = std::max(ewma_var_[i], kVarFloor);
    const double delta = ewma_mean_[i] - train_mean_[i];
    const double z = delta / std::sqrt(vq * shrink);
    z_sq_sum += z * z;
    // Symmetrized KL of two univariate Gaussians:
    //   0.5 * [ (vp + d^2)/vq + (vq + d^2)/vp ] - 1
    kl_sum += 0.5 * ((vp + delta * delta) / vq + (vq + delta * delta) / vp) - 1.0;
  }
  z_rms_ = n == 0 ? 0.0 : std::sqrt(z_sq_sum / static_cast<double>(n));
  symmetric_kl_ = n == 0 ? 0.0 : kl_sum / static_cast<double>(n);
}

std::optional<DriftEvent> DriftMonitor::poll_event() {
  std::optional<DriftEvent> out;
  pending_.swap(out);
  return out;
}

void DriftMonitor::rebase() {
  ewma_mean_ = train_mean_;
  ewma_var_ = train_var_;
  z_rms_ = 0.0;
  symmetric_kl_ = 0.0;
  reject_rate_ = 0.0;
  since_rebase_ = 0;
  streak_ = 0;
  pending_.reset();
}

void DriftMonitor::rebind(std::shared_ptr<const core::HierarchicalDisassembler> model) {
  if (model == nullptr || !model->has_training_moments()) {
    throw std::invalid_argument(
        "DriftMonitor::rebind: model carries no training moments");
  }
  model_ = std::move(model);
  const core::FeatureMoments& m = model_->training_moments();
  train_mean_ = m.mean;
  train_var_ = m.variance;
  rebase();
}

}  // namespace sidis::runtime
