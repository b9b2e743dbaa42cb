// Streaming probabilistic sequence decoding bench: basic-block recovery.
//
// One seeded firmware-shaped scenario, end to end: a same-group-heavy model
// (group-1 ALU plus group-4 control flow) serves a stream whose ground truth
// is a repeating three-block loop body, the per-window posteriors come from
// classify_batch_scored, and a bounded-lag SequenceDecoder smooths the stream
// under an IsaPrior blended with the firmware's own bigram statistics.  The
// bench measures what the ISSUE asks for:
//
//   * per-window argmax accuracy vs sequence-decoded accuracy (the decode
//     must pay for itself),
//   * basic-block recovery rate (exact block matches against the ground
//     truth CFG segmentation) for both streams -- the structural metric the
//     Sec.-5.7 malware scenario extends to,
//   * smoothed-window count and converged-commit fraction per lag,
//   * decode-only latency (the lattice cost rides on top of classification,
//     so it must stay microscopic next to a classify call).
//
// A lag sweep shows the latency/exactness trade; the primary row (lag 6)
// carries the acceptance criteria.  Results go to BENCH_sequence.json
// (override with SIDIS_BENCH_OUT), diffed in CI by `bench/check.py sequence`
// exactly like the drift and batch benches.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/hierarchical.hpp"
#include "core/sequence.hpp"
#include "runtime/decoder.hpp"

namespace sidis::bench {
namespace {

constexpr std::uint64_t kSeed = 0x5e9dec0de;

struct LagPoint {
  std::size_t lag = 0;
  double accuracy = 0.0;
  double block_recovery = 0.0;
  double converged_fraction = 0.0;
  std::uint64_t smoothed = 0;
  double decode_ns_per_window = 0.0;
};

struct SequenceBenchRun {
  std::size_t windows = 0;
  std::size_t blocks = 0;
  double argmax_accuracy = 0.0;
  double argmax_block_recovery = 0.0;
  std::vector<LagPoint> lags;
  std::size_t primary_lag = 6;
};

const std::vector<std::size_t>& decode_classes() {
  // Group-1 ALU neighbours (ADD/ADC/CP confuse each other) plus group-4
  // control flow (BRNE/RJMP terminate basic blocks and confuse each other).
  static const std::vector<std::size_t> classes = {
      class_id(avr::Mnemonic::kAdd), class_id(avr::Mnemonic::kAdc),
      class_id(avr::Mnemonic::kCp), class_id(avr::Mnemonic::kBrne),
      class_id(avr::Mnemonic::kRjmp)};
  return classes;
}

/// The firmware-shaped ground truth: three basic blocks in a loop --
///   B1: ADD ADC CP BRNE   (wide add, compare, conditional exit)
///   B2: ADD CP  BRNE      (short iteration guard)
///   B3: ADC ADC RJMP      (carry mop-up, back edge)
std::vector<std::size_t> firmware_truth(std::size_t cycles) {
  const auto cl = [](avr::Mnemonic m) { return class_id(m); };
  const std::vector<std::size_t> cycle = {
      cl(avr::Mnemonic::kAdd), cl(avr::Mnemonic::kAdc), cl(avr::Mnemonic::kCp),
      cl(avr::Mnemonic::kBrne),
      cl(avr::Mnemonic::kAdd), cl(avr::Mnemonic::kCp), cl(avr::Mnemonic::kBrne),
      cl(avr::Mnemonic::kAdc), cl(avr::Mnemonic::kAdc), cl(avr::Mnemonic::kRjmp)};
  std::vector<std::size_t> truth;
  truth.reserve(cycles * cycle.size());
  for (std::size_t i = 0; i < cycles; ++i) {
    truth.insert(truth.end(), cycle.begin(), cycle.end());
  }
  return truth;
}

SequenceBenchRun run_scenario(std::size_t cycles, std::size_t per_class_train) {
  SequenceBenchRun run;

  // -- profile + train -------------------------------------------------------
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng{kSeed};
  core::ProfilingData data;
  for (std::size_t cls : decode_classes()) {
    data.classes[cls] = campaign.capture_class(cls, per_class_train, 3, rng);
  }
  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  const auto model = std::make_shared<const core::HierarchicalDisassembler>(
      core::HierarchicalDisassembler::train(data, cfg));

  // -- the firmware stream and the prior its image implies -------------------
  const std::vector<std::size_t> truth = firmware_truth(cycles);
  run.windows = truth.size();
  run.blocks = core::segment_blocks(truth).size();
  core::BigramPrior evidence(avr::num_instruction_classes());
  for (std::size_t i = 1; i < truth.size(); ++i) {
    evidence.add_transition(truth[i - 1], truth[i]);
  }
  const auto prior = std::make_shared<const core::IsaPrior>(evidence);

  sim::TraceSet windows;
  std::mt19937_64 stream_rng{kSeed + 1};
  for (std::size_t i = 0; i < truth.size(); ++i) {
    windows.push_back(campaign.capture_trace(
        avr::random_instance(truth[i], stream_rng, {}),
        sim::ProgramContext::make(static_cast<int>(i % 3)), stream_rng, 0.0));
  }

  // Emissions once (the batch path), decode many times (the lag sweep).
  const std::vector<core::Disassembly> scored =
      model->classify_batch_scored(windows);
  std::vector<std::size_t> argmax_path;
  std::size_t argmax_hits = 0;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    argmax_path.push_back(scored[i].class_idx);
    if (scored[i].class_idx == truth[i]) ++argmax_hits;
  }
  run.argmax_accuracy =
      static_cast<double>(argmax_hits) / static_cast<double>(truth.size());
  run.argmax_block_recovery = core::block_recovery_rate(argmax_path, truth);

  for (const std::size_t lag : {std::size_t{0}, std::size_t{2}, std::size_t{6},
                                std::size_t{16}}) {
    runtime::SequenceDecoderConfig dcfg;
    dcfg.lag = lag;
    runtime::SequenceDecoder decoder(model->posterior_classes(), prior, dcfg);

    std::vector<runtime::SmoothedWindow> out;
    out.reserve(scored.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const core::Disassembly& w : scored) {
      decoder.push(w);
      while (auto s = decoder.poll()) out.push_back(std::move(*s));
    }
    for (auto& s : decoder.flush()) out.push_back(std::move(s));
    const auto t1 = std::chrono::steady_clock::now();

    LagPoint point;
    point.lag = lag;
    point.smoothed = decoder.smoothed_count();
    point.decode_ns_per_window =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(out.size());
    std::vector<std::size_t> decoded_path;
    std::size_t hits = 0, converged = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      decoded_path.push_back(out[i].value.class_idx);
      if (out[i].value.class_idx == truth[i]) ++hits;
      if (out[i].converged) ++converged;
    }
    point.accuracy = static_cast<double>(hits) / static_cast<double>(out.size());
    point.converged_fraction =
        static_cast<double>(converged) / static_cast<double>(out.size());
    point.block_recovery = core::block_recovery_rate(decoded_path, truth);
    run.lags.push_back(point);
  }
  return run;
}

const LagPoint& primary(const SequenceBenchRun& r) {
  for (const LagPoint& p : r.lags) {
    if (p.lag == r.primary_lag) return p;
  }
  return r.lags.back();
}

void write_json(const SequenceBenchRun& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const LagPoint& p = primary(r);
  const bool decode_ok = p.accuracy > r.argmax_accuracy;
  const bool blocks_ok = p.block_recovery >= r.argmax_block_recovery;
  std::fprintf(f, "{\n  \"bench\": \"sequence_decode\",\n");
  std::fprintf(f,
               "  \"config\": {\"classes\": %zu, \"windows\": %zu, "
               "\"blocks\": %zu, \"primary_lag\": %zu},\n",
               decode_classes().size(), r.windows, r.blocks, r.primary_lag);
  std::fprintf(f,
               "  \"argmax\": {\"accuracy\": %.4f, \"block_recovery\": %.4f},\n",
               r.argmax_accuracy, r.argmax_block_recovery);
  std::fprintf(f, "  \"lags\": [\n");
  for (std::size_t i = 0; i < r.lags.size(); ++i) {
    const LagPoint& q = r.lags[i];
    std::fprintf(f,
                 "    {\"lag\": %zu, \"accuracy\": %.4f, \"block_recovery\": "
                 "%.4f, \"converged_fraction\": %.4f, \"smoothed\": %llu, "
                 "\"decode_ns_per_window\": %.1f}%s\n",
                 q.lag, q.accuracy, q.block_recovery, q.converged_fraction,
                 static_cast<unsigned long long>(q.smoothed),
                 q.decode_ns_per_window, i + 1 < r.lags.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"primary\": {\"lag\": %zu, \"accuracy\": %.4f, "
               "\"block_recovery\": %.4f, \"decode_ns_per_window\": %.1f,\n"
               "              \"criterion_decoded_above_argmax\": %s, "
               "\"criterion_blocks_recovered\": %s}\n}\n",
               p.lag, p.accuracy, p.block_recovery, p.decode_ns_per_window,
               decode_ok ? "true" : "false", blocks_ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sidis::bench

int main() {
  using namespace sidis;
  using namespace sidis::bench;

  print_header("Streaming sequence decoding: basic-block recovery");
  const std::size_t cycles =
      static_cast<std::size_t>(env_int("SIDIS_SEQ_CYCLES", fast_mode() ? 12 : 24));
  const std::size_t per_class = traces_per_class(60);

  const SequenceBenchRun run = run_scenario(cycles, per_class);

  std::printf("\nfirmware: %zu windows in %zu basic blocks (3-block loop body)\n",
              run.windows, run.blocks);
  std::printf("per-window argmax: accuracy %.1f%%, block recovery %.1f%%\n",
              100.0 * run.argmax_accuracy, 100.0 * run.argmax_block_recovery);
  std::printf("\n  %-5s %9s %8s %10s %9s %14s\n", "lag", "accuracy", "blocks",
              "converged", "smoothed", "ns/window");
  for (const LagPoint& p : run.lags) {
    std::printf("  %-5zu %8.1f%% %7.1f%% %9.1f%% %9llu %14.0f\n", p.lag,
                100.0 * p.accuracy, 100.0 * p.block_recovery,
                100.0 * p.converged_fraction,
                static_cast<unsigned long long>(p.smoothed),
                p.decode_ns_per_window);
  }
  const LagPoint& p = primary(run);
  std::printf("\nprimary (lag %zu): accuracy %.1f%% vs argmax %.1f%%, "
              "block recovery %.1f%% vs %.1f%%\n",
              p.lag, 100.0 * p.accuracy, 100.0 * run.argmax_accuracy,
              100.0 * p.block_recovery, 100.0 * run.argmax_block_recovery);

  const char* out = std::getenv("SIDIS_BENCH_OUT");
  write_json(run, out != nullptr && *out != '\0' ? out : "BENCH_sequence.json");
  return 0;
}
