// Model recipes, seeded workload inputs, scoring helpers and the report.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "avr/assembler.hpp"
#include "avr/program.hpp"
#include "bench.hpp"
#include "core/csa.hpp"
#include "core/profiler.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) violations_.push_back(what);
}

void Report::note(const std::string& line) const {
  std::printf("  %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::print() const {
  for (const Entry& m : metrics_) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %16.6f (failed %llu / attempted %llu)\n", "fail_frac",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& v : violations_) {
    std::fprintf(stderr, "perfbench: correctness violation: %s\n", v.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
         << metrics_[i].value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// -- recipes --------------------------------------------------------------

Recipe isa_recipe() {
  Recipe r;
  r.registers = {0, 2, 5, 9, 13, 16, 20, 24, 28, 31};
  r.config.pipeline = core::csa_config();
  r.config.factory.discriminant.shrinkage = 0.15;
  return r;
}

Recipe fleet_recipe() {
  Recipe r;
  // Group-1 ALU neighbours plus the group-4 branches that end their basic
  // blocks (bench_sequence's firmware alphabet, plus SUB).
  for (const avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kAdc, avr::Mnemonic::kSub,
                                avr::Mnemonic::kCp, avr::Mnemonic::kBrne, avr::Mnemonic::kRjmp}) {
    r.classes.push_back(*avr::class_index(m));
  }
  r.config.pipeline = core::csa_config();
  r.config.pipeline.pca_components = 40;
  r.config.group_components = 20;
  r.config.instruction_components = 40;
  r.config.factory.discriminant.shrinkage = 0.15;
  return r;
}

const sim::AcquisitionCampaign& campaign() {
  static const sim::AcquisitionCampaign c(sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0));
  return c;
}

namespace {

/// Profiling programs; a class's (or register's) i-th trace runs in program
/// i mod kPrograms.
constexpr int kPrograms = 10;

std::vector<std::size_t> profiled_classes(const Recipe& recipe) {
  if (!recipe.classes.empty()) return recipe.classes;
  std::vector<std::size_t> all(avr::num_instruction_classes());
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = c;
  return all;
}

core::ProfilerConfig profiler_config(const Recipe& recipe, std::size_t per_class,
                                     std::size_t per_register) {
  core::ProfilerConfig pc;
  pc.traces_per_class = per_class;
  pc.traces_per_register = per_register;
  pc.num_programs = kPrograms;
  pc.classes = recipe.classes;
  pc.registers = recipe.registers;
  pc.profile_registers = !recipe.registers.empty();
  return pc;
}

}  // namespace

Trained train_model(const Recipe& recipe) {
  Trained t;
  t.recipe = recipe;
  std::mt19937_64 rng(0x70f11e);

  auto t0 = Clock::now();
  t.data = core::profile_device(
      campaign(), profiler_config(recipe, recipe.traces_per_class, recipe.traces_per_register),
      rng);
  const core::ProfilingData clean = core::profile_device(
      campaign(), profiler_config(recipe, recipe.calib_per_class, recipe.calib_per_register),
      rng);
  auto t1 = Clock::now();
  t.model = std::make_shared<core::HierarchicalDisassembler>(
      core::HierarchicalDisassembler::train(t.data, recipe.config));
  auto t2 = Clock::now();
  t.model->calibrate_reject(clean, core::RejectOperatingPoint::kBalanced);
  auto t3 = Clock::now();
  t.capture_s = seconds_between(t0, t1);
  t.train_s = seconds_between(t1, t2);
  t.calibrate_s = seconds_between(t2, t3);
  return t;
}

core::ProfilingData half_depth(const core::ProfilingData& data) {
  // Every other run of kPrograms consecutive traces.
  const auto half = [](const sim::TraceSet& traces) {
    sim::TraceSet out;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i / kPrograms % 2 == 0) out.push_back(traces[i]);
    }
    return out;
  };
  core::ProfilingData out;
  for (const auto& [cls, traces] : data.classes) out.classes[cls] = half(traces);
  for (const auto& [reg, traces] : data.rd_classes) out.rd_classes[reg] = half(traces);
  for (const auto& [reg, traces] : data.rr_classes) out.rr_classes[reg] = half(traces);
  return out;
}

// -- workload inputs ------------------------------------------------------

std::size_t truth_class(const sim::Trace& trace) {
  const auto cls = avr::class_of(trace.meta.instr);
  return cls ? *cls : trace.meta.class_idx;
}

namespace {

/// Operand pins drawn from the profiled register set, so the register
/// levels are scored on labels they know.
avr::SampleOptions register_pins(const Recipe& recipe, std::size_t cls, std::mt19937_64& rng) {
  avr::SampleOptions opts;
  if (recipe.registers.empty()) return opts;
  std::uniform_int_distribution<std::size_t> pick(0, recipe.registers.size() - 1);
  const std::uint8_t rd = recipe.registers[pick(rng)];
  const std::uint8_t rr = recipe.registers[pick(rng)];
  if (avr::class_allows_rd(cls, rd)) opts.fix_rd = rd;
  if (avr::class_allows_rr(cls, rr)) opts.fix_rr = rr;
  return opts;
}

/// One window per entry of `order`, fresh operands, captured in program
/// contexts the profiling campaign never used.
Windows capture_unseen(const Recipe& recipe, const std::vector<std::size_t>& order,
                       std::mt19937_64& rng) {
  Windows w;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const avr::Instruction target =
        avr::random_instance(order[i], rng, register_pins(recipe, order[i], rng));
    w.traces.push_back(campaign().capture_trace(
        target, sim::ProgramContext::make(50 + static_cast<int>(i % 3)), rng));
    w.truth.push_back(order[i]);
  }
  return w;
}

bool is_terminator(std::size_t cls) {
  if (!core::ends_basic_block(cls)) return false;
  switch (avr::instruction_classes().at(cls).mnemonic) {
    case avr::Mnemonic::kCpse:
    case avr::Mnemonic::kSbrc:
    case avr::Mnemonic::kSbrs:
    case avr::Mnemonic::kSbic:
    case avr::Mnemonic::kSbis:
    case avr::Mnemonic::kJmp:
    case avr::Mnemonic::kIjmp:
    case avr::Mnemonic::kRcall:
    case avr::Mnemonic::kCall:
    case avr::Mnemonic::kIcall:
    case avr::Mnemonic::kRet:
    case avr::Mnemonic::kReti:
      return false;
    default:
      return true;  // relative branch or RJMP; offsets are pinned to .+0
  }
}

}  // namespace

Windows analyst_windows(const Recipe& recipe, std::size_t count, std::uint64_t seed) {
  // Every profiled class in turn, each round in a fresh seeded order.
  std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dULL + 0xa11a1);
  std::vector<std::size_t> order;
  while (order.size() < count) {
    std::vector<std::size_t> round = profiled_classes(recipe);
    std::shuffle(round.begin(), round.end(), rng);
    order.insert(order.end(), round.begin(), round.end());
  }
  order.resize(count);
  return capture_unseen(recipe, order, rng);
}

Windows fleet_windows(const Recipe& recipe, std::size_t count, std::uint64_t seed) {
  // Each device runs a loop of small basic blocks: 1-4 ALU instructions and
  // a branch.  Windows are captured one by one; only their labels follow
  // the block structure.
  std::mt19937_64 rng(seed * 0x94d049bb133111ebULL + 0xf1ee7);
  std::vector<std::size_t> body, terminators;
  for (std::size_t c : profiled_classes(recipe)) {
    (is_terminator(c) ? terminators : body).push_back(c);
  }
  std::uniform_int_distribution<std::size_t> pick_body(0, body.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_term(0, terminators.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_len(1, 4);
  std::vector<std::size_t> order;
  while (order.size() < count) {
    for (std::size_t i = pick_len(rng); i > 0; --i) order.push_back(body[pick_body(rng)]);
    order.push_back(terminators[pick_term(rng)]);
  }
  order.resize(count);
  return capture_unseen(recipe, order, rng);
}

Windows firmware_windows(const Recipe& recipe, std::size_t min_windows, std::uint64_t seed,
                         avr::Program& program) {
  std::mt19937_64 rng(seed * 0xbf58476d1ce4e5b9ULL + 0xf1a5);
  std::vector<std::size_t> body_classes, terminators;
  for (std::size_t c : profiled_classes(recipe)) {
    if (is_terminator(c)) {
      terminators.push_back(c);
    } else if (!core::ends_basic_block(c) &&
               avr::is_linear_safe(avr::random_instance(c, rng))) {
      body_classes.push_back(c);
    }
  }
  if (body_classes.empty() || terminators.empty()) {
    throw std::runtime_error("firmware_windows: recipe profiles no block shapes");
  }

  // A small control-flow graph of basic blocks: 2-6 linear instructions and
  // a terminating branch each, two successors per block.  The image is one
  // seeded walk through it, laid out straight-line (every branch targets the
  // next instruction), so the CPU executes exactly the listing.
  constexpr std::size_t kBlocks = 128;
  std::uniform_int_distribution<std::size_t> pick_body(0, body_classes.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_term(0, terminators.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_len(2, 6);
  std::uniform_int_distribution<std::size_t> pick_block(0, kBlocks - 1);
  std::vector<std::vector<avr::Instruction>> blocks(kBlocks);
  std::vector<std::array<std::size_t, 2>> successors(kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t len = pick_len(rng);
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t c = body_classes[pick_body(rng)];
      blocks[b].push_back(avr::random_instance(c, rng, register_pins(recipe, c, rng)));
    }
    const std::size_t t = terminators[pick_term(rng)];
    blocks[b].push_back(avr::random_instance(t, rng, register_pins(recipe, t, rng)));
    successors[b] = {pick_block(rng), pick_block(rng)};
  }

  std::string listing = "SBI 5, 5\nNOP\n";
  std::size_t emitted = 0;
  std::bernoulli_distribution coin(0.5);
  for (std::size_t b = 0; emitted < min_windows; b = successors[b][coin(rng) ? 1 : 0]) {
    for (const avr::Instruction& in : blocks[b]) {
      listing += avr::to_string(in) + "\n";
      ++emitted;
    }
  }
  listing += "CBI 5, 5\n";
  const avr::AssemblyResult assembled = avr::assemble(listing);
  if (!assembled.ok()) {
    throw std::runtime_error("firmware_windows: image does not assemble: line " +
                             std::to_string(assembled.errors.front().line) + ": " +
                             assembled.errors.front().message);
  }
  program = assembled.program;

  Windows w;
  w.traces = campaign().capture_program(program, sim::ProgramContext::make(400 + static_cast<int>(seed % 7)),
                                        rng, program.size() + 16);
  for (const sim::Trace& t : w.traces) w.truth.push_back(truth_class(t));
  return w;
}

std::vector<sim::TraceSet> chunked(const sim::TraceSet& traces) {
  constexpr std::size_t kChunk = 64;
  std::vector<sim::TraceSet> out;
  for (std::size_t i = 0; i < traces.size();) {
    std::size_t end = std::min(i + kChunk, traces.size());
    if (traces.size() - end == 1) end = traces.size();
    out.emplace_back(traces.begin() + static_cast<std::ptrdiff_t>(i),
                     traces.begin() + static_cast<std::ptrdiff_t>(end));
    i = end;
  }
  return out;
}

// -- scoring --------------------------------------------------------------

void score(const core::Disassembly& d, const sim::Trace& trace, Scores& s) {
  ++s.windows;
  const std::size_t cls = truth_class(trace);
  if (d.class_idx != cls) return;
  ++s.class_hits;
  bool ok = true;
  if (avr::class_uses_rd(cls) && d.rd && *d.rd != trace.meta.instr.rd) ok = false;
  if (avr::class_uses_rr(cls) && d.rr && *d.rr != trace.meta.instr.rr) ok = false;
  if (ok) ++s.operand_hits;
}

namespace {
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
}  // namespace

bool same(const core::Disassembly& a, const core::Disassembly& b) {
  if (a.group != b.group || a.class_idx != b.class_idx || a.rd != b.rd || a.rr != b.rr ||
      a.verdict != b.verdict || !same_bits(a.margin_headroom, b.margin_headroom) ||
      !same_bits(a.score_headroom, b.score_headroom) ||
      a.log_posterior.size() != b.log_posterior.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.log_posterior.size(); ++i) {
    if (!same_bits(a.log_posterior[i], b.log_posterior[i])) return false;
  }
  return true;
}

void BlockTally::add(const std::vector<std::size_t>& decoded,
                     const std::vector<std::size_t>& truth) {
  const double n = static_cast<double>(core::segment_blocks(truth).size());
  recovered += core::block_recovery_rate(decoded, truth) * n;
  blocks += n;
}

std::shared_ptr<const core::IsaPrior> structural_prior() {
  return std::make_shared<const core::IsaPrior>();
}

std::shared_ptr<const core::IsaPrior> firmware_prior(const avr::Program& program) {
  core::BigramPrior evidence(avr::num_instruction_classes());
  evidence.add_program(program);
  return std::make_shared<const core::IsaPrior>(evidence);
}

}  // namespace perfbench
