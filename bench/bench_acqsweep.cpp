// Acquisition-configuration sweep: what does a cheaper scope actually cost?
//
// The paper profiles at one nominal configuration (2.5 GS/s, 8-bit, full
// analog front end).  This bench sweeps the acquisition bundle -- sample
// rate, ADC resolution -- over sim::AcquisitionConfig::standard_sweep(),
// re-profiles and re-trains the hierarchical disassembler at every corner,
// and records the accuracy-vs-cost frontier, where cost = samples per
// window x ADC bits, the byte budget a capture card spends per window.
//
// Three things are gated in CI (`bench/check.py acqsweep`):
//
//   * the frontier is monotone within noise: paying more never buys less
//     accuracy (a cheaper corner may tie -- the sweep's classes stay
//     separable well below nominal -- but must never *win* materially);
//   * the nominal sweep entry is a bit-exact identity: traces captured
//     through the acquisition-configured constructor equal the legacy
//     campaign's sample for sample, so the whole sweep machinery is proven
//     not to perturb the paper's baseline numbers;
//   * config-augmented zero-shot transfer: a corpus pooled over devices AND
//     acquisition configs, evaluated on an unseen corner-sampled device with
//     no recalibration budget, must strictly beat the best budget-matched
//     single-device baseline (the multi_device section; the full fleet-scale
//     variant lives in bench_table4_transfer).
//
// SIDIS_FAST=1 shrinks the task to two classes per group (16 classes) and a
// four-device pool; results go to BENCH_acqsweep.json (override with
// SIDIS_BENCH_OUT).
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/csa.hpp"
#include "core/hierarchical.hpp"
#include "core/transfer.hpp"
#include "features/pipeline.hpp"
#include "sim/acq_config.hpp"

namespace sidis::bench {
namespace {

constexpr std::uint64_t kSeed = 0xacc59e7;

std::vector<std::size_t> bench_classes() {
  std::vector<std::size_t> classes;
  for (int g = 1; g <= 8; ++g) {
    const auto cls = avr::classes_in_group(g);
    if (fast_mode()) {
      classes.push_back(cls.front());
      classes.push_back(cls.back());
    } else {
      classes.insert(classes.end(), cls.begin(), cls.end());
    }
  }
  return classes;
}

core::HierarchicalConfig model_recipe(double samples_per_cycle) {
  core::HierarchicalConfig cfg;
  cfg.pipeline = features::configured_for(core::csa_config(), samples_per_cycle);
  cfg.pipeline.pca_components = 20;
  cfg.group_components = 18;
  cfg.instruction_components = 18;
  cfg.factory.discriminant.shrinkage = 0.15;
  return cfg;
}

struct FrontierPoint {
  sim::AcquisitionConfig acq;
  double accuracy = 0.0;
};

/// Profile -> train -> evaluate the full class set at one acquisition
/// corner.  Each corner reseeds identically, so corners differ only by the
/// acquisition chain, never by draw order.
FrontierPoint run_corner(const sim::AcquisitionConfig& acq,
                         const std::vector<std::size_t>& classes,
                         std::size_t train_per_class, std::size_t eval_per_class) {
  const sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0), acq};
  std::mt19937_64 rng{kSeed};
  core::ProfilingData data;
  for (std::size_t cls : classes) {
    data.classes[cls] = campaign.capture_class(cls, train_per_class, 3, rng);
  }
  const core::HierarchicalDisassembler model = core::HierarchicalDisassembler::train(
      data, model_recipe(acq.samples_per_cycle));

  FrontierPoint point;
  point.acq = acq;
  std::size_t windows = 0, hits = 0;
  for (std::size_t cls : classes) {
    for (const sim::Trace& t : campaign.capture_class(cls, eval_per_class, 3, rng)) {
      ++windows;
      if (model.classify(t).class_idx == cls) ++hits;
    }
  }
  point.accuracy = static_cast<double>(hits) / static_cast<double>(windows);
  return point;
}

/// The nominal entry's identity proof: the acquisition-configured campaign
/// must reproduce the legacy constructor's captures bit for bit.
bool nominal_is_bit_identical(const std::vector<std::size_t>& classes) {
  const sim::AcquisitionCampaign legacy{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
  const sim::AcquisitionCampaign configured{sim::DeviceModel::make(0),
                                            sim::SessionContext::make(0),
                                            sim::AcquisitionConfig::nominal()};
  std::mt19937_64 rng_a{kSeed + 1}, rng_b{kSeed + 1};
  for (std::size_t i = 0; i < 3 && i < classes.size(); ++i) {
    const sim::TraceSet a = legacy.capture_class(classes[i], 4, 2, rng_a);
    const sim::TraceSet b = configured.capture_class(classes[i], 4, 2, rng_b);
    if (a.size() != b.size()) return false;
    for (std::size_t t = 0; t < a.size(); ++t) {
      if (a[t].samples != b[t].samples) return false;
    }
  }
  return true;
}

core::MultiDeviceResult run_zero_shot(core::MultiDeviceConfig& md) {
  md.train_devices = fast_mode() ? std::vector<int>{0, 1, 2, 3}
                                 : std::vector<int>{0, 1, 2, 3, 4};
  md.holdout_device = 7;
  md.holdout_corner = true;
  // Config augmentation on one sample grid: resolution variants teach the
  // templates which fine-amplitude detail is device furniture.  Rate sweeps
  // change the grid and train per-rate models (the frontier above).
  md.configs = {sim::AcquisitionConfig::nominal(),
                sim::AcquisitionConfig::low_resolution(6)};
  md.traces_per_class = static_cast<std::size_t>(fast_mode() ? 24 : 40);
  md.test_traces_per_class = static_cast<std::size_t>(fast_mode() ? 20 : 40);

  core::TransferConfig base;
  // Same-group ALU classes: fine-grained level-2 discrimination is where
  // device corners bite; a cross-group set would hide the single-device gap.
  base.classes = {class_id(avr::Mnemonic::kAdd), class_id(avr::Mnemonic::kAdc),
                  class_id(avr::Mnemonic::kSub), class_id(avr::Mnemonic::kAnd),
                  class_id(avr::Mnemonic::kEor)};
  base.num_programs = 4;
  base.model = model_recipe(md.configs.front().samples_per_cycle);
  base.seed = kSeed + 2;
  return core::evaluate_multi_device(md, base);
}

void write_json(const std::string& path, const std::vector<FrontierPoint>& frontier,
                bool frontier_monotone, bool nominal_identity,
                const core::MultiDeviceConfig& md, const core::MultiDeviceResult& zs,
                std::size_t num_classes, std::size_t train_per_class,
                std::size_t eval_per_class) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"acqsweep\",\n");
  std::fprintf(f,
               "  \"config\": {\"classes\": %zu, \"train_per_class\": %zu, "
               "\"eval_per_class\": %zu},\n",
               num_classes, train_per_class, eval_per_class);
  std::fprintf(f, "  \"frontier\": [\n");
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const sim::AcquisitionConfig& acq = frontier[i].acq;
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"samples_per_cycle\": %.4f, "
                 "\"adc_bits\": %d, \"window_samples\": %zu, \"cost\": %.0f, "
                 "\"accuracy\": %.4f}%s\n",
                 acq.label.c_str(), acq.samples_per_cycle, acq.adc_bits,
                 acq.window_samples(), acq.cost(), frontier[i].accuracy,
                 i + 1 < frontier.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"criterion_frontier_monotone\": %s,\n",
               frontier_monotone ? "true" : "false");
  std::fprintf(f, "  \"criterion_nominal_identity\": %s,\n",
               nominal_identity ? "true" : "false");
  std::fprintf(f, "  \"multi_device\": {\n");
  std::fprintf(f,
               "    \"train_devices\": %zu, \"configs\": %zu, "
               "\"holdout_device\": %d, \"holdout_corner\": true,\n",
               md.train_devices.size(), md.configs.size(), zs.holdout_device);
  std::fprintf(f, "    \"pooled_train_traces\": %zu,\n", zs.pooled_train_traces);
  std::fprintf(f, "    \"pooled_accuracy\": %.4f,\n", zs.pooled_accuracy);
  std::fprintf(f, "    \"pooled_accepted_fraction\": %.4f,\n",
               zs.pooled_accepted_fraction);
  std::fprintf(f, "    \"pooled_flagged_miss_fraction\": %.4f,\n",
               zs.pooled_flagged_miss_fraction);
  std::fprintf(f, "    \"singles\": [\n");
  for (std::size_t i = 0; i < zs.singles.size(); ++i) {
    std::fprintf(f, "      {\"train_device\": %d, \"accuracy\": %.4f}%s\n",
                 zs.singles[i].train_device, zs.singles[i].accuracy,
                 i + 1 < zs.singles.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"best_single_accuracy\": %.4f,\n", zs.best_single_accuracy);
  std::fprintf(f, "    \"pooled_lift\": %.4f\n", zs.pooled_lift);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"criterion_zero_shot_lift\": %s\n",
               zs.pooled_lift > 0.0 ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sidis::bench

int main() {
  using namespace sidis;
  using namespace sidis::bench;

  print_header("Acquisition-configuration sweep -- accuracy vs capture cost");
  const std::vector<std::size_t> classes = bench_classes();
  const std::size_t train_per_class = traces_per_class(120);
  const std::size_t eval_per_class = static_cast<std::size_t>(fast_mode() ? 15 : 30);
  std::printf("  %zu classes, train %zu / eval %zu traces per class\n",
              classes.size(), train_per_class, eval_per_class);

  const bool nominal_identity = nominal_is_bit_identical(classes);
  std::printf("  nominal config bit-identity vs legacy campaign: %s\n",
              nominal_identity ? "EXACT" : "BROKEN");

  std::vector<FrontierPoint> frontier;
  std::printf("\n  %-18s %8s %6s %8s %9s\n", "config", "spc", "bits", "cost",
              "accuracy");
  for (const sim::AcquisitionConfig& acq : sim::AcquisitionConfig::standard_sweep()) {
    frontier.push_back(run_corner(acq, classes, train_per_class, eval_per_class));
    std::printf("  %-18s %8.2f %6d %8.0f %8.1f%%\n", acq.label.c_str(),
                acq.samples_per_cycle, acq.adc_bits, acq.cost(),
                100.0 * frontier.back().accuracy);
    std::fflush(stdout);
  }
  // Monotone within noise along descending cost: a cheaper corner may tie
  // but must not beat a richer one by more than sampling jitter.
  bool frontier_monotone = true;
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    if (frontier[i].accuracy > frontier[i - 1].accuracy + 0.03) {
      frontier_monotone = false;
    }
  }
  std::printf("  frontier monotone within noise: %s\n",
              frontier_monotone ? "yes" : "NO");

  std::printf("\n  config-augmented zero-shot transfer to an unseen corner device\n");
  core::MultiDeviceConfig md;
  const core::MultiDeviceResult zs = run_zero_shot(md);
  for (const core::SingleDeviceBaseline& s : zs.singles) {
    std::printf("    single dev%-2d             %8.1f%%\n", s.train_device,
                100.0 * s.accuracy);
  }
  std::printf("    pooled (%zu devs x %zu cfgs) %7.1f%%  (lift %+.1f pts, "
              "accepted %.0f%%, flagged-miss %.0f%%)\n",
              md.train_devices.size(), md.configs.size(), 100.0 * zs.pooled_accuracy,
              100.0 * zs.pooled_lift, 100.0 * zs.pooled_accepted_fraction,
              100.0 * zs.pooled_flagged_miss_fraction);

  const char* out = std::getenv("SIDIS_BENCH_OUT");
  write_json(out != nullptr && *out != '\0' ? out : "BENCH_acqsweep.json", frontier,
             frontier_monotone, nominal_identity, md, zs, classes.size(),
             train_per_class, eval_per_class);
  return 0;
}
