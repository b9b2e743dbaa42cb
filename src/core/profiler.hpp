// Profiling-campaign orchestration: the simulated counterpart of the paper's
// MATLAB/Perl/TekVISA automation (Sec. 5.1) that walks every instruction
// class and register through the acquisition bench.
#pragma once

#include <functional>
#include <random>

#include "core/hierarchical.hpp"
#include "sim/acquisition.hpp"

namespace sidis::core {

struct ProfilerConfig {
  /// Traces per instruction class (the paper: 3000).
  std::size_t traces_per_class = 120;
  /// Traces per register class for the third level (paper: 3000).
  std::size_t traces_per_register = 200;
  /// Profiling program files per class (paper: 10, CSA: 19).
  int num_programs = 10;
  /// Which classes to profile; empty = all 112.
  std::vector<std::size_t> classes;
  /// Which registers to profile for Rd/Rr recovery; empty = r0..r31.
  std::vector<std::uint8_t> registers;
  /// Skip register profiling entirely (opcode-only disassembler).
  bool profile_registers = true;
  /// Worker threads for the campaign (0 = hardware concurrency, 1 = inline).
  /// Campaign items are independent captures, so they fan out through
  /// runtime::parallel_for; each item draws from its own RNG stream derived
  /// from the caller's `rng`, making the corpus bit-identical for a fixed
  /// seed at ANY worker count.
  std::size_t workers = 0;
};

/// Called after each profiled class/register; `done`/`total` count campaign
/// items.  Return false to abort.  Invocations are serialized (never
/// concurrent) but arrive in completion order, which under parallel
/// profiling need not be campaign order.
using ProfilerProgress = std::function<bool(std::size_t done, std::size_t total,
                                            const std::string& item)>;

/// Runs the full acquisition campaign and assembles the profiling corpus the
/// hierarchical disassembler trains from.  `rng` only seeds the per-item
/// streams (one draw per campaign item), so its post-call state is
/// deterministic too.
ProfilingData profile_device(const sim::AcquisitionCampaign& campaign,
                             const ProfilerConfig& config, std::mt19937_64& rng,
                             const ProfilerProgress& progress = {});

}  // namespace sidis::core
