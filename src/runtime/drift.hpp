// Online covariate-shift (drift) detection for a deployed monitor.
//
// The paper's CSA section and both follow-ups in PAPERS.md agree on the
// field failure mode: acquisition conditions drift -- supply, temperature,
// probe coupling, chip aging -- and templates trained under profiling
// conditions silently rot.  The fleet can already *publish* a recalibrated
// model mid-stream (FleetFrontend::swap_stage); this module supplies the
// missing trigger: a streaming statistic that says "the features no longer
// look like training" soon enough to spend the recalibration budget before
// accuracy craters, while holding a bounded false-alarm rate on stationary
// streams (raising it for nothing burns K labeled traces per event).
//
// Detector statistic.  Every observed window is projected into the model's
// monitor feature space (core::HierarchicalDisassembler::monitor_features,
// the post-pipeline vectors of its monitor level) and folded into per-feature
// EWMA mean/variance estimates initialized at the training moments persisted
// with the model.  A monitor_drift fleet stream does not project twice: its
// model's classify walk already computed that vector and keeps it
// (Disassembly::monitor_features), so the pump folds it with
// observe_features; observe() re-transforms the window, for any other
// caller.  Two complementary statistics compare the estimates against
// training:
//
//  * z_rms: root-mean-square over features of the EWMA-mean z-score.  An
//    EWMA with smoothing alpha over iid samples of variance s^2 has
//    stationary variance s^2 * alpha / (2 - alpha); dividing each feature's
//    mean displacement by that yields a calibrated per-feature z, so the
//    default threshold speaks sigma units regardless of feature scale.
//    Catches *mean shifts* (gain/offset/thermal drift residuals).
//  * mean symmetric KL: per-feature univariate-Gaussian symmetrized KL
//    divergence between the EWMA estimate and training, averaged over
//    features.  Catches *spread changes* (noise-floor growth, saturation)
//    that leave means in place.
//
// A third, model-relative trigger watches the reject-rate EWMA: calibrated
// reject gates (core::RejectConfig quantiles) fire on off-distribution
// inputs, so a climbing reject rate flags drift even in directions the
// moment statistics compress poorly.  Any trigger must stay raised for
// `consecutive` observations before an event fires (a single outlier window
// never raises), and `cooldown` observations must separate events.
//
// Threading contract: a DriftMonitor belongs to ONE thread -- feed it from
// a stream's consumer loop (or, for a monitor_drift stream, the fleet shard
// under its lock) in emission order.  Pure sequential
// arithmetic, no clocks, no RNG: a fixed observation sequence produces
// bit-identical scores and events at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/hierarchical.hpp"
#include "sim/trace.hpp"

namespace sidis::runtime {

struct DriftConfig {
  /// EWMA smoothing for the per-feature moment estimates.  Smaller = longer
  /// memory = smaller stationary variance = finer drifts detectable, at the
  /// price of detection latency (the effective window is ~2/alpha).
  double alpha = 0.05;
  /// Observations before any event may fire; lets the EWMA variance
  /// estimates settle so the KL statistic starts calibrated.
  std::size_t warmup = 32;
  /// z_rms trigger threshold, in sigma units of the stationary EWMA-mean
  /// distribution (see header comment).
  double z_threshold = 3.5;
  /// Mean-symmetric-KL trigger threshold (nats).  0.5 corresponds to a
  /// ~1 sigma mean shift or a ~2x variance change on every feature at once.
  double kl_threshold = 0.5;
  /// Consecutive triggered observations required before an event fires.
  std::size_t consecutive = 4;
  /// Observations after an event (or rebase) before the next may fire.
  std::size_t cooldown = 64;
  /// EWMA smoothing of the reject-rate trend.
  double reject_alpha = 0.02;
  /// Reject-rate trigger threshold; >= 1.0 disables the trigger (a rate
  /// never exceeds 1).  Only meaningful when the model's reject gates are
  /// calibrated.
  double reject_rate_threshold = 1.0;
};

enum class DriftTrigger : std::uint8_t {
  kFeatureShift = 0,  ///< z_rms crossed z_threshold (mean displacement)
  kFeatureSpread = 1, ///< mean symmetric KL crossed kl_threshold
  kRejectRate = 2,    ///< reject-rate EWMA crossed its threshold
};

std::string to_string(DriftTrigger trigger);

/// One raised drift alarm.
struct DriftEvent {
  std::uint64_t ordinal = 0;      ///< 0-based index of this event
  std::uint64_t observation = 0;  ///< observations seen when it fired (1-based)
  DriftTrigger trigger = DriftTrigger::kFeatureShift;
  double z_rms = 0.0;             ///< statistic values at fire time
  double symmetric_kl = 0.0;
  double reject_rate = 0.0;
};

class DriftMonitor {
 public:
  /// The model supplies both the feature projection and the training
  /// moments it is compared against; the monitor shares ownership so a
  /// hot-swap elsewhere can never leave it dangling.  Throws
  /// std::invalid_argument when the model carries no training moments
  /// (every level trivial).
  explicit DriftMonitor(std::shared_ptr<const core::HierarchicalDisassembler> model,
                        DriftConfig config = {});

  /// Folds one classified window into the statistics: projects the trace
  /// through the model's monitor pipeline and updates the moment and
  /// reject-rate estimates.  Call from the consumer loop in emission order.
  void observe(const sim::Trace& trace, const core::Disassembly& result);

  /// Folds an already-projected feature vector: the fleet pump's entry point
  /// (the classify walk's Disassembly::monitor_features) and the
  /// synthetic-stream tests'.  `rejected` feeds the reject-rate trend.  A
  /// vector with a non-finite entry leaves the moment estimates as they are
  /// and is counted in nonfinite_skipped(); the window still counts as an
  /// observation and feeds the reject-rate trend.  Throws
  /// std::invalid_argument on a dimension mismatch with the training
  /// moments.
  void observe_features(const linalg::Vector& features, bool rejected);

  /// Returns the pending event, if one fired since the last poll; at most
  /// one event is pending at a time (further triggers while un-polled are
  /// folded into the pending one's statistics being stale -- poll often).
  std::optional<DriftEvent> poll_event();

  /// Resets the streaming estimates back onto the model's training moments
  /// and restarts warmup/cooldown.  Call after a recalibrated model has been
  /// published so the monitor judges the *new* steady state.
  void rebase();

  /// Points the monitor at a (typically recalibrated) successor model and
  /// rebases.  Throws like the constructor.
  void rebind(std::shared_ptr<const core::HierarchicalDisassembler> model);

  // -- introspection (current statistic values) ------------------------------
  double z_rms() const { return z_rms_; }
  double symmetric_kl() const { return symmetric_kl_; }
  double reject_rate() const { return reject_rate_; }
  std::uint64_t observations() const { return observations_; }
  std::uint64_t events_raised() const { return events_raised_; }
  /// Observations whose feature vector held a NaN or infinity.
  std::uint64_t nonfinite_skipped() const { return nonfinite_skipped_; }
  const DriftConfig& config() const { return config_; }
  const std::shared_ptr<const core::HierarchicalDisassembler>& model() const {
    return model_;
  }

 private:
  void recompute_scores();

  std::shared_ptr<const core::HierarchicalDisassembler> model_;
  DriftConfig config_;
  linalg::Vector train_mean_;
  linalg::Vector train_var_;
  linalg::Vector ewma_mean_;
  linalg::Vector ewma_var_;
  double z_rms_ = 0.0;
  double symmetric_kl_ = 0.0;
  double reject_rate_ = 0.0;
  std::uint64_t observations_ = 0;       ///< since construction
  std::uint64_t since_rebase_ = 0;       ///< warmup/cooldown clock
  std::size_t streak_ = 0;
  std::uint64_t events_raised_ = 0;
  std::uint64_t nonfinite_skipped_ = 0;
  std::optional<DriftEvent> pending_;
};

}  // namespace sidis::runtime
