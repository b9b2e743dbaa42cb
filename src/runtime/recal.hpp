// Self-scheduled recalibration: the policy half of the drift loop.
//
// DriftMonitor says *when* templates have rotted; this module decides *what
// to do about it*: spend K labeled traces per class from a pluggable
// CalibrationSource, run the existing CSA recalibration arms (renorm /
// refit, core::recalibrated_copy, which core::TransferEvaluator evaluates
// offline), and atomically publish the adapted model into the serving
// stream via FleetFrontend::swap_stage -- optionally through the
// ModelRegistry first, so the artifact checksum becomes the published
// stage's stamp and every FleetResult is attributable to an on-disk version.
//
// The loop a deployment runs (tests/benches drive exactly this):
//
//   fleet.submit(stream, ...); r = fleet.poll(stream);
//   monitor.observe(trace, r->value);
//   if (auto e = monitor.poll_event()) scheduler.on_drift(*e, monitor);
//
// Budget discipline: labeled traces are the scarce resource (each one costs
// a ground-truth execution on the monitored device), so the scheduler
// enforces a lifetime trace budget and refuses events it can no longer
// afford -- the event still counts in events(), the spend does not happen.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/hierarchical.hpp"
#include "core/transfer.hpp"
#include "runtime/fleet.hpp"
#include "runtime/registry.hpp"
#include "sim/acquisition.hpp"

namespace sidis::runtime {

class DriftMonitor;
struct DriftEvent;

/// Supplies labeled recalibration traces on demand -- the abstraction over
/// "go capture ground-truth windows on the deployed device right now".
/// Labels ride in TraceMeta::class_idx, as everywhere else in the corpus
/// plumbing.
class CalibrationSource {
 public:
  virtual ~CalibrationSource() = default;
  /// Captures `per_class` fresh traces of every class this source covers.
  /// Successive calls must reflect the *current* device state (a drifting
  /// device keeps drifting between events).
  virtual sim::TraceSet capture(std::size_t per_class) = 0;
};

/// CalibrationSource backed by a sim::AcquisitionCampaign: captures at the
/// source's current campaign progress (advance it as the stream progresses,
/// so recal traces carry the same drift state as the live windows).  Every
/// random draw comes from the source's own seeded RNG -- deterministic and
/// independent of the streamed corpus.
class CampaignCalibrationSource final : public CalibrationSource {
 public:
  /// The campaign must outlive the source.  `classes` lists the profiled
  /// class indices to capture; programs round-robin over
  /// [first_program, first_program + num_programs).
  CampaignCalibrationSource(const sim::AcquisitionCampaign& campaign,
                            std::vector<std::size_t> classes, int num_programs,
                            std::uint64_t seed, int first_program = 0);

  sim::TraceSet capture(std::size_t per_class) override;

  /// Campaign progress in [0, 1] stamped on subsequent captures.
  void set_progress(double progress) { progress_ = progress; }
  double progress() const { return progress_; }
  std::size_t traces_captured() const { return traces_captured_; }

 private:
  const sim::AcquisitionCampaign& campaign_;
  std::vector<std::size_t> classes_;
  int num_programs_;
  int first_program_;
  std::mt19937_64 rng_;
  double progress_ = 0.0;
  std::size_t traces_captured_ = 0;
};

/// Adapter that narrows a paired-capture source to one channel: captured
/// traces pass through sim::channel_views, so the consumer (a scheduler
/// recalibrating the EM channel model of a fused deployment) sees the same
/// single-channel shape that channel's model was profiled on.  The inner
/// source must outlive the adapter.
class ChannelCalibrationSource final : public CalibrationSource {
 public:
  ChannelCalibrationSource(CalibrationSource& inner, sim::Channel channel)
      : inner_(inner), channel_(channel) {}

  sim::TraceSet capture(std::size_t per_class) override {
    return sim::channel_views(inner_.capture(per_class), channel_);
  }

  sim::Channel channel() const { return channel_; }

 private:
  CalibrationSource& inner_;
  sim::Channel channel_;
};

struct RecalPolicy {
  /// Labeled traces per class requested from the source per drift event.
  std::size_t traces_per_class = 4;
  /// Lifetime cap on labeled traces; events the remaining budget cannot
  /// cover are declined (still counted as drift events).
  std::size_t trace_budget = 64;
  /// Which CSA arm to run (core::TransferEvaluator semantics): kRenorm
  /// re-centres the column scalers only; kRefit additionally retrains the
  /// per-level classifiers on refit_base + the fresh corpus.
  core::RecalMode mode = core::RecalMode::kRenorm;
  /// Renorm variant: also rescale column stddevs (see
  /// FeaturePipeline::renormalized).
  bool rescale = false;
  /// Bundle name used when a registry is attached.
  std::string registry_name = "drift-recal";
  /// Escalation: when a kRenorm publish failed to quiet the monitor -- the
  /// monitor re-fires within `escalation_window` observations of the
  /// previous successful publish, i.e. as soon as its own cooldown allows --
  /// run the kRefit arm for this event instead.  A renorm only moves the
  /// column scalers; a shift it cannot express (boundary rotation, spread
  /// change) keeps the statistics raised, and repeating the same cheap arm
  /// would burn the trace budget without fixing anything.  Requires
  /// refit_base, like mode == kRefit.
  bool escalate_to_refit = false;
  /// Observation span after a publish within which a re-fire counts as "the
  /// renorm did not take".  0 derives warmup + consecutive + cooldown from
  /// the monitor's config at event time -- one observation more than the
  /// earliest moment the rebased monitor can honestly re-fire, so only
  /// back-to-back alarms escalate.
  std::uint64_t escalation_window = 0;
};

/// What one on_drift() call did.
struct RecalOutcome {
  bool performed = false;        ///< false: declined (budget) or failed
  std::size_t traces_spent = 0;  ///< fresh labeled traces consumed
  std::uint64_t stamp = 0;       ///< stage stamp published to the stream
  int registry_version = 0;      ///< stored version (0 without a registry)
  core::RecalMode mode = core::RecalMode::kRenorm;  ///< arm actually run
  bool escalated = false;        ///< mode was escalated beyond the policy's
  std::string reason;            ///< set when performed == false
};

class RecalibrationScheduler {
 public:
  /// `fleet` and `source` must outlive the scheduler, which maintains the
  /// model `stream` serves; `model` is that currently served model (shared
  /// -- the scheduler keeps successors alive for the stream's stage
  /// closures).  `registry`, when non-null, receives every recalibrated
  /// model before it is swapped in, and the artifact checksum stamps the
  /// published stage.  `refit_base`, when non-null, is the profiling corpus
  /// mixed into kRefit retrains (a K-traces/class corpus alone cannot
  /// estimate class covariances); required for kRefit.
  RecalibrationScheduler(FleetFrontend& fleet, FleetFrontend::StreamId stream,
                         std::shared_ptr<const core::HierarchicalDisassembler> model,
                         CalibrationSource& source, RecalPolicy policy = {},
                         ModelRegistry* registry = nullptr,
                         const core::ProfilingData* refit_base = nullptr);

  /// Consumes one drift event: spends budget, recalibrates, publishes via
  /// hot-swap, rebinds + rebases `monitor` onto the successor model.
  /// Counts the event either way, and the recalibration when it happens.
  RecalOutcome on_drift(const DriftEvent& event, DriftMonitor& monitor);

  /// How the recalibrated model reaches the serving tier.  Default:
  /// fleet.swap_stage(stream, make_stage(model, stamp)) (single-channel
  /// deployment).  A fused deployment overrides this to build a new
  /// FusedDisassembler from the recalibrated channel model and the other,
  /// untouched channel, and publish it as a fused stage.  The scheduler
  /// itself knows no channels: it maintains the one channel model it was
  /// constructed around, with that channel's CalibrationSource (e.g. a
  /// ChannelCalibrationSource), and its events come from a plain
  /// DriftMonitor on that model.
  using Publisher = std::function<void(
      std::shared_ptr<const core::HierarchicalDisassembler> model,
      std::uint64_t stamp)>;
  void set_publisher(Publisher publisher) { publisher_ = std::move(publisher); }

  const std::shared_ptr<const core::HierarchicalDisassembler>& active_model() const {
    return model_;
  }
  std::size_t traces_spent() const { return traces_spent_; }
  /// Drift events consumed by on_drift(), and recalibrations actually
  /// published (an event the budget cannot cover counts only in the former).
  std::size_t events() const { return events_; }
  std::size_t recalibrations() const { return recalibrations_; }
  std::size_t budget_remaining() const {
    return policy_.trace_budget - traces_spent_;
  }
  const RecalPolicy& policy() const { return policy_; }

 private:
  FleetFrontend& fleet_;
  FleetFrontend::StreamId stream_;
  std::shared_ptr<const core::HierarchicalDisassembler> model_;
  CalibrationSource& source_;
  RecalPolicy policy_;
  ModelRegistry* registry_;
  const core::ProfilingData* refit_base_;
  Publisher publisher_;  ///< empty = fleet_.swap_stage
  std::size_t traces_spent_ = 0;
  std::size_t events_ = 0;
  std::size_t recalibrations_ = 0;
  std::uint64_t local_stamp_ = 0;  ///< registry-less stamp sequence
  /// Monitor observation count at the last successful publish; drives the
  /// renorm -> refit escalation (see RecalPolicy::escalate_to_refit).
  std::uint64_t last_publish_observation_ = 0;
  bool has_published_ = false;
};

}  // namespace sidis::runtime
