// Power traces and labeled trace collections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "avr/isa.hpp"

namespace sidis::sim {

/// Acquisition modality of a capture.  kPower is the paper's shunt-resistor
/// supply-current channel; kEm is the simulated near-field probe channel
/// (see sim/em_model.hpp).  A paired Trace carries both, aligned sample for
/// sample; channel_view() projects either one out as a plain single-channel
/// trace for the per-channel classifier stack.
enum class Channel : std::uint8_t { kPower = 0, kEm = 1 };

/// Labels attached to one captured trace.  `class_idx` indexes the 112-entry
/// avr::instruction_classes() table; register fields are present when the
/// class uses them.
struct TraceMeta {
  std::size_t class_idx = 0;
  std::optional<std::uint8_t> rd;
  std::optional<std::uint8_t> rr;
  int program_id = 0;   ///< which profiling program file produced it
  int device_id = 0;    ///< which physical device it was captured from
  int session_id = 0;   ///< measurement session (time / setup)
  avr::Instruction instr;  ///< full ground-truth instruction
  /// Per-capture gain reference, estimated from the content-free SBI+NOP
  /// trigger prefix of the raw capture (std-dev in scope units).  The
  /// covariate-shift-adaptation normalization divides by it, cancelling the
  /// session/device/program gain without touching the instruction-dependent
  /// part of the window.
  double gain_estimate = 1.0;
  /// Severity of the FaultProfile that corrupted this capture (0 = clean).
  /// Ground-truth bookkeeping for robustness sweeps and runtime telemetry;
  /// the classifier never reads it.
  double fault_severity = 0.0;
  /// EM-channel counterparts of gain_estimate / fault_severity, filled only
  /// when the campaign captured a paired EM window.  The EM probe has its own
  /// front-end gain (and its own fault injector), so the channels carry
  /// independent references.
  double em_gain_estimate = 1.0;
  double em_fault_severity = 0.0;
  /// Acquisition-configuration stamp (sim/acq_config.hpp): the sample rate
  /// and ADC resolution the capture chain ran at.  The streaming runtime can
  /// validate these at submit so a fleet never mixes corpora captured at
  /// different front-end configurations behind one model.  Defaults are the
  /// nominal scope, so hand-built test traces pass nominal validation.
  double samples_per_cycle = 156.25;
  int adc_bits = 8;
};

/// One captured trace: the paper's 315-sample power window plus its labels,
/// and -- when the campaign's EM probe is enabled -- the aligned EM window of
/// the same instruction (same start sample, same length).
struct Trace {
  std::vector<double> samples;
  TraceMeta meta;
  /// Aligned EM-probe window; empty when the capture was power-only.
  /// Declared after `meta` so a braced {samples, labels} pair keeps
  /// aggregate-initializing {samples, meta} exactly as before the channel
  /// existed (a second vector member in slot 2 would make such braces
  /// ambiguous against the vector iterator-pair constructor).
  std::vector<double> em_samples;

  bool has_em() const { return !em_samples.empty(); }
};

/// A set of traces, usually one class or one experiment's worth.
using TraceSet = std::vector<Trace>;

/// Projects one channel of a (possibly paired) trace as a plain
/// single-channel trace: `samples` holds the requested channel,
/// `em_samples` is empty, and `gain_estimate`/`fault_severity` are the
/// requested channel's values.  The power view of a power-only trace is the
/// trace itself; the EM view of a power-only trace has empty samples.
Trace channel_view(const Trace& trace, Channel channel);

/// channel_view over a whole set.
TraceSet channel_views(const TraceSet& traces, Channel channel);

}  // namespace sidis::sim
