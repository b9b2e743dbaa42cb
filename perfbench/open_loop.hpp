// Open-loop load generator for runtime::FleetFrontend.
//
// One thread plays every device: it submits each window at its Poisson due
// time, whatever the fleet is doing, and polls the streams that have windows
// outstanding in between.  Latency runs from the due time (not the submit
// time, so a late generator cannot hide queueing) to the poll() that hands
// the window back, on the benchmark's own clock.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "bench.hpp"
#include "runtime/fleet.hpp"

namespace perfbench {

/// One stretch of arrivals, up to the last delivery of a window it admitted.
struct Phase {
  double seconds = 0.0;            ///< over which windows arrive
  double wall_s = 0.0;             ///< first arrival -> last delivery
  std::vector<double> latency_us;  ///< due -> delivery, in delivery order
  std::vector<double> gen_lag_us;  ///< due -> submit, in arrival order
  std::uint64_t attempted = 0;     ///< arrivals submitted
  std::uint64_t failed = 0;        ///< arrivals shed, refused, closed or thrown
  std::uint64_t delivered = 0;
  /// Whether latency_us, gen_lag_us and the streams' delivered sequences are
  /// kept; saturate() only counts, so memory does not grow with capacity.
  bool sampled = true;
  double sustained_wps = 0.0;  ///< saturate(): delivered/s while every stream was full
  std::uint64_t submit_calls = 0, poll_calls = 0;
  double submit_us = 0.0, poll_us = 0.0;  ///< total call time (timed phases only)
};

class OpenLoop {
 public:
  using StreamId = runtime::FleetFrontend::StreamId;

  /// `expected[i]` is the model's own verdict on pool window i; when
  /// non-empty every delivered result must equal it bit for bit.  Stream s
  /// replays the pool in order from offset 7*s.
  OpenLoop(runtime::FleetFrontend& fleet, std::vector<StreamId> streams, const Windows& pool,
           std::vector<core::Disassembly> expected, std::uint64_t seed);

  /// Runs `seconds` of Poisson arrivals at `rate_wps` spread uniformly over
  /// the streams, then drains every window the phase admitted.  With
  /// `time_calls` each submit()/poll() is timed.
  Phase run(double rate_wps, double seconds, bool time_calls);

  /// Keeps `depth` windows outstanding on every stream for `seconds` -- a
  /// stream gets its next window as soon as one comes back -- then drains.
  /// The fleet is never idle, so the delivered rate until the stop
  /// (Phase::sustained_wps) is the highest rate it serves without a growing
  /// backlog: offering more only lengthens the queue.  Each stream refills
  /// on its own, so a slow shard does not hold the others back.
  Phase saturate(double seconds, std::size_t depth);

  /// `windows` arrivals due at once, round-robin over the streams -- fills
  /// the fleet's batches.
  Phase burst(std::size_t windows, bool time_calls);

  /// Closes every stream (taking what close_stream still returns) and
  /// checks the fleet's admission ledger.
  void close_all(Report& report);

  const Scores& scores() const { return scores_; }
  /// Exact-block recovery of every stream's delivered class sequence.
  BlockTally blocks() const;

 private:
  struct Outstanding {
    std::uint64_t sequence;
    Clock::time_point due;
    std::size_t window;
  };
  struct Stream {
    StreamId id;
    std::size_t cursor;  ///< next pool index this stream submits
    std::deque<Outstanding> outstanding;
    std::vector<std::size_t> delivered, truth;
    bool active = false;
  };

  Phase drive(const std::vector<Clock::duration>& offsets,
              const std::vector<std::uint32_t>& who, Phase phase, bool time_calls);
  /// Submits stream `s`'s next window, due at `due`; returns whether the
  /// fleet admitted it cleanly.
  bool submit(Stream& s, Clock::time_point due, Phase& phase, bool time_calls);
  /// Polls stream `s` dry; returns how many windows came back.
  std::uint64_t poll_stream(Stream& s, Phase& phase, bool time_calls);
  /// Polls every stream with windows outstanding dry; returns how many
  /// windows came back.
  std::uint64_t poll_active(Phase& phase, bool time_calls);
  void deliver(Stream& s, const runtime::FleetResult& r, Clock::time_point at, Phase* phase);

  runtime::FleetFrontend& fleet_;
  const Windows& pool_;
  std::vector<core::Disassembly> expected_;
  std::vector<Stream> streams_;
  std::vector<std::size_t> active_;
  std::mt19937_64 rng_;
  bool fifo_ok_ = true;
  bool identical_ok_ = true;
  Scores scores_;
};

/// The runtime layer's per-layer metrics of a traced fleet session: call
/// times and generator lateness from `phase`, coalescing and classify cost
/// per window from the fleet's own counters.
void report_fleet_layers(const Phase& phase, const runtime::FleetStats& stats,
                         Report& report);

}  // namespace perfbench
