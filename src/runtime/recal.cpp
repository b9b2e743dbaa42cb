#include "runtime/recal.hpp"

#include <stdexcept>
#include <utility>

#include "avr/program.hpp"
#include "runtime/drift.hpp"

namespace sidis::runtime {

CampaignCalibrationSource::CampaignCalibrationSource(
    const sim::AcquisitionCampaign& campaign, std::vector<std::size_t> classes,
    int num_programs, std::uint64_t seed, int first_program)
    : campaign_(campaign),
      classes_(std::move(classes)),
      num_programs_(num_programs),
      first_program_(first_program),
      rng_(seed) {
  if (classes_.empty()) {
    throw std::invalid_argument("CampaignCalibrationSource: no classes");
  }
  if (num_programs_ < 1) {
    throw std::invalid_argument("CampaignCalibrationSource: num_programs >= 1");
  }
}

sim::TraceSet CampaignCalibrationSource::capture(std::size_t per_class) {
  sim::TraceSet out;
  out.reserve(per_class * classes_.size());
  for (std::size_t cls : classes_) {
    for (std::size_t i = 0; i < per_class; ++i) {
      // Same construction as AcquisitionCampaign::capture_class, except the
      // campaign progress is pinned to "now" instead of ramping 0..1: recal
      // traces must carry the same drift state as the live stream.
      const int pid =
          first_program_ + static_cast<int>(i % static_cast<std::size_t>(num_programs_));
      const sim::ProgramContext prog = sim::ProgramContext::make(pid);
      const avr::Instruction target = avr::random_instance(cls, rng_, {});
      out.push_back(campaign_.capture_trace(target, prog, rng_, progress_));
    }
  }
  traces_captured_ += out.size();
  return out;
}

RecalibrationScheduler::RecalibrationScheduler(
    FleetFrontend& fleet, FleetFrontend::StreamId stream,
    std::shared_ptr<const core::HierarchicalDisassembler> model,
    CalibrationSource& source, RecalPolicy policy, ModelRegistry* registry,
    const core::ProfilingData* refit_base)
    : fleet_(fleet),
      stream_(stream),
      model_(std::move(model)),
      source_(source),
      policy_(policy),
      registry_(registry),
      refit_base_(refit_base) {
  if (model_ == nullptr) {
    throw std::invalid_argument("RecalibrationScheduler: null model");
  }
  if ((policy_.mode == core::RecalMode::kRefit || policy_.escalate_to_refit) &&
      refit_base_ == nullptr) {
    throw std::invalid_argument(
        "RecalibrationScheduler: kRefit needs a refit_base profiling corpus");
  }
}

RecalOutcome RecalibrationScheduler::on_drift(const DriftEvent& event,
                                              DriftMonitor& monitor) {
  ++events_;
  RecalOutcome outcome;
  outcome.mode = policy_.mode;

  // Escalation: a re-fire hot on the heels of the previous publish means the
  // renorm arm did not remove the shift -- run the refit arm this round.
  if (policy_.escalate_to_refit && policy_.mode == core::RecalMode::kRenorm &&
      has_published_ && event.observation >= last_publish_observation_) {
    std::uint64_t window = policy_.escalation_window;
    if (window == 0) {
      const DriftConfig& dc = monitor.config();
      window = dc.warmup + dc.consecutive + dc.cooldown;
    }
    if (event.observation - last_publish_observation_ <= window) {
      outcome.mode = core::RecalMode::kRefit;
      outcome.escalated = true;
    }
  }

  if (policy_.traces_per_class == 0) {
    outcome.reason = "policy requests zero traces per event";
    return outcome;
  }
  if (traces_spent_ >= policy_.trace_budget) {
    outcome.reason = "trace budget exhausted";
    return outcome;
  }
  // Per-event cost is per_class x covered classes, which only the source
  // knows -- so capture first and refuse afterwards if the round overshot
  // the remaining budget (the accounting stays exact either way).
  const sim::TraceSet fresh = source_.capture(policy_.traces_per_class);
  if (fresh.empty()) {
    outcome.reason = "calibration source returned no traces";
    return outcome;
  }
  if (traces_spent_ + fresh.size() > policy_.trace_budget) {
    outcome.reason = "event cost exceeds remaining trace budget";
    return outcome;
  }

  // Recalibrate a clone, so the served model is never mutated in place.
  auto clone = std::make_shared<core::HierarchicalDisassembler>(core::recalibrated_copy(
      *model_, fresh, outcome.mode, policy_.rescale, refit_base_));

  std::uint64_t stamp = 0;
  if (registry_ != nullptr) {
    outcome.registry_version = registry_->save(policy_.registry_name, *clone);
    stamp = registry_->info(policy_.registry_name, outcome.registry_version).checksum;
  } else {
    stamp = ++local_stamp_;
  }

  // Publish: the stage's closure co-owns the clone, so the model lives
  // exactly as long as some worker can still pin its stage, and it runs the
  // same batched walk as the stage it replaces.  A custom publisher (a fused
  // deployment republishing one recalibrated channel) replaces the swap, not
  // the telemetry.
  std::shared_ptr<const core::HierarchicalDisassembler> published = clone;
  if (publisher_) {
    publisher_(published, stamp);
  } else {
    fleet_.swap_stage(stream_, make_stage(published, stamp));
  }
  ++recalibrations_;
  traces_spent_ += fresh.size();
  model_ = published;
  last_publish_observation_ = event.observation;
  has_published_ = true;
  monitor.rebind(published);

  outcome.performed = true;
  outcome.traces_spent = fresh.size();
  outcome.stamp = stamp;
  return outcome;
}

}  // namespace sidis::runtime
