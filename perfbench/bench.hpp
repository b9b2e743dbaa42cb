// Shared declarations of the repository benchmark (perfbench).
//
// One process runs one workload, either untraced (end-to-end metrics) or
// traced (per-layer metrics).  Everything the program under test sees is
// generated from the --seed before any clock starts; only calls into the
// library's public API are timed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/sequence.hpp"
#include "sim/acquisition.hpp"

namespace perfbench {

using namespace sidis;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Metrics and correctness verdicts of one run, printed as the final JSON
/// line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed check makes the run incorrect
  /// (the JSON says so and the process exits non-zero).
  void check(bool ok, const std::string& what);
  /// Free-form line for the human-readable part of the output.
  void note(const std::string& line) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return violations_.empty(); }
  /// Prints every metric with its unit, the violations, and the final JSON
  /// line.
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> violations_;
};

// -- model recipes --------------------------------------------------------

/// The 112-class recipe (bench_full_system's): every instruction class plus
/// Rd/Rr levels over a spread of ten registers, CSA pipeline, QDA with
/// shrinkage, reject gates calibrated at kBalanced on a held-out clean
/// corpus.  The 6-class fleet recipe keeps bench_fleet's PCA budgets and has
/// no register levels.
struct Recipe {
  std::vector<std::size_t> classes;        ///< profiled classes (empty = all 112)
  std::vector<std::uint8_t> registers;     ///< empty = no register levels
  std::size_t traces_per_class = 80;
  std::size_t traces_per_register = 240;
  std::size_t calib_per_class = 20;
  std::size_t calib_per_register = 40;
  core::HierarchicalConfig config;
};

Recipe isa_recipe();
Recipe fleet_recipe();

/// A trained, calibrated model plus what the traced run needs to rebuild its
/// levels.
struct Trained {
  Recipe recipe;
  core::ProfilingData data;
  std::shared_ptr<core::HierarchicalDisassembler> model;
  double capture_s = 0.0;    ///< profiling + calibration captures
  double train_s = 0.0;      ///< HierarchicalDisassembler::train
  double calibrate_s = 0.0;  ///< calibrate_reject(kBalanced)
};

/// The single acquisition setup every workload profiles and serves on.
const sim::AcquisitionCampaign& campaign();

/// Profiles, trains and calibrates `recipe`.  The profiling campaign is the
/// lab's fixed one (not seeded by --seed): runs differ in the windows they
/// serve, not in the model, so accuracy spreads measure the workload.
Trained train_model(const Recipe& recipe);

/// Half of every profiled trace set (40 traces per class instead of 80),
/// still covering every profiling program and the whole session's drift.
core::ProfilingData half_depth(const core::ProfilingData& data);

// -- workload inputs ------------------------------------------------------

/// Windows plus their ground truth.
struct Windows {
  sim::TraceSet traces;
  std::vector<std::size_t> truth;  ///< class per window
};

/// Ground-truth class of a captured window.
std::size_t truth_class(const sim::Trace& trace);

/// disasm112 input: fresh-operand windows of every profiled class captured
/// inside unseen program contexts, registers drawn from the profiled set,
/// shuffled.
Windows analyst_windows(const Recipe& recipe, std::size_t count, std::uint64_t seed);

/// decode112 input: one execution of a seeded, assembled firmware image
/// (basic blocks of linear instructions, each ending in a branch, visited
/// along a seeded walk).  `program` receives the assembled image.
Windows firmware_windows(const Recipe& recipe, std::size_t min_windows, std::uint64_t seed,
                         avr::Program& program);

/// fleet-open input: windows from unseen programs whose labels walk small
/// basic blocks of the recipe's ALU classes, each closed by a branch.
Windows fleet_windows(const Recipe& recipe, std::size_t count, std::uint64_t seed);

// -- shared scoring -------------------------------------------------------

struct Scores {
  std::size_t windows = 0;
  std::size_t class_hits = 0;
  std::size_t operand_hits = 0;  ///< class right and every recovered operand right
};

/// bench_full_system's scoring: an operand counts when the model recovered
/// it and the class uses it.
void score(const core::Disassembly& d, const sim::Trace& trace, Scores& s);

/// Bitwise equality of everything a Disassembly carries (log_posterior
/// included).
bool same(const core::Disassembly& a, const core::Disassembly& b);

/// Counts of the exact-block metric, so streams can be pooled.
struct BlockTally {
  double recovered = 0.0;
  double blocks = 0.0;
  void add(const std::vector<std::size_t>& decoded, const std::vector<std::size_t>& truth);
  double rate() const { return blocks == 0.0 ? 1.0 : recovered / blocks; }
};

/// Structure-only ISA prior, for workloads without firmware evidence.
std::shared_ptr<const core::IsaPrior> structural_prior();
/// ISA prior blended with a program's own bigrams.
std::shared_ptr<const core::IsaPrior> firmware_prior(const avr::Program& program);

/// Closed-loop chunks of 64 windows, the analyst's batch size (a trailing
/// single window joins the chunk before it: classify_batch would send a
/// lone window down the scalar path).
std::vector<sim::TraceSet> chunked(const sim::TraceSet& traces);

// -- runs -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What the traced run needs from a workload: its model, its windows,
/// which classify path it serves them through, and the transition prior its
/// sequence layer uses.
struct LedgerInput {
  const Trained* trained = nullptr;
  const Windows* windows = nullptr;
  bool scored = false;
  std::shared_ptr<const core::TransitionPrior> prior;
};

/// Setup split, hot-path layer times, point overlap and decoder cost of one
/// workload (per-layer metrics of the traced run).
void run_ledger(const LedgerInput& in, const Options& opt, Report& report);

void run_disasm112(const Options& opt, Report& report);
void run_decode112(const Options& opt, Report& report);
void run_fleet_open(const Options& opt, Report& report);

}  // namespace perfbench
