// Table-4-style cross-device transfer matrix with recalibration budgets.
//
// Every device in a 6-device pool takes a turn as the profiling device; its
// templates then classify field traces from all 6 devices (the diagonal is
// the within-device control).  Two template recipes run side by side:
//
//   * without CSA (Sec. 4 pipeline): loose KL threshold, no per-trace
//     normalization -- collapses off-diagonal;
//   * with CSA (Table 3 "With Norm."): tight threshold + per-trace
//     normalization -- recovers the gain/offset part of the device shift.
//
// What CSA cannot cancel (per-opcode process corners, the decoupling-pole
// spectrum reshape) is attacked with a recalibration budget: K traces/class
// from the deployment device spent on scaler re-centring ("renorm") or on
// re-centring plus a classifier refit over profiling + budget ("refit"),
// sweeping K in {0, 1, 5, 10, 25} -- the accuracy-vs-K curve a field team
// uses to decide how many captures a new device is worth.
//
// The matrix's natural endgame is the multi_device section: instead of one
// profiling device, the whole fleet {dev0..dev4} is profiled -- at the
// nominal acquisition configuration AND a 6-bit variant (config
// augmentation) -- pooled into one template set, and evaluated with NO
// recalibration budget on a corner-sampled device the pool never saw.  The
// pooled model must strictly beat the best budget-matched single-device
// baseline (the zero-shot lift CI gates); its reject gates, calibrated on
// pooled data only, are measured on the same field corpus.
//
// The last act wires the result through the serving stack: the baseline and
// recalibrated template sets are published to a runtime::ModelRegistry, and
// a one-stream FleetFrontend hot-swaps to the recalibrated version
// mid-stream (RuntimeStats::model_swaps counts the publication).
//
// Results are printed and written to BENCH_transfer.json (override with
// SIDIS_BENCH_OUT); CI diffs the key metrics against a checked-in baseline.
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/transfer.hpp"
#include "runtime/fleet.hpp"
#include "runtime/registry.hpp"

namespace sidis::bench {
namespace {

constexpr int kDevices = 6;

/// Same-group ALU classes (Table 2 group 1): the fine-grained discrimination
/// the hierarchy's level 2 does, where inter-device corners actually bite --
/// a cross-group set (ADD vs LDI vs RJMP) stays separable on any device and
/// would hide the transfer gap.
const std::vector<std::size_t>& eval_classes() {
  static const std::vector<std::size_t> classes = {
      class_id(avr::Mnemonic::kAdd), class_id(avr::Mnemonic::kAdc),
      class_id(avr::Mnemonic::kSub), class_id(avr::Mnemonic::kAnd),
      class_id(avr::Mnemonic::kEor)};
  return classes;
}

core::TransferConfig make_config(bool csa) {
  core::TransferConfig cfg;
  cfg.classes = eval_classes();
  cfg.train_traces_per_class = traces_per_class(100);
  cfg.test_traces_per_class = static_cast<std::size_t>(fast_mode() ? 24 : 40);
  cfg.num_programs = 4;
  cfg.budgets = {0, 1, 5, 10, 25};
  cfg.model.pipeline = csa ? core::csa_config() : core::without_csa_config();
  cfg.model.pipeline.pca_components = 20;
  cfg.model.group_components = 18;
  cfg.model.instruction_components = 18;
  cfg.model.factory.discriminant.shrinkage = 0.15;
  return cfg;
}

struct MatrixStats {
  double diag_mean = 0.0;
  double offdiag_mean = 0.0;
};

MatrixStats matrix_stats(const std::vector<std::vector<double>>& m) {
  MatrixStats s;
  double diag = 0.0, off = 0.0;
  std::size_t n_off = 0;
  for (std::size_t a = 0; a < m.size(); ++a) {
    for (std::size_t b = 0; b < m[a].size(); ++b) {
      if (a == b) {
        diag += m[a][b];
      } else {
        off += m[a][b];
        ++n_off;
      }
    }
  }
  s.diag_mean = diag / static_cast<double>(m.size());
  s.offdiag_mean = n_off == 0 ? 0.0 : off / static_cast<double>(n_off);
  return s;
}

void print_matrix(const char* title, const std::vector<std::vector<double>>& m) {
  std::printf("\n  %s (rows: train device, cols: test device)\n      ", title);
  for (int e = 0; e < kDevices; ++e) std::printf("  dev%-3d", e);
  std::printf("\n");
  for (int d = 0; d < kDevices; ++d) {
    std::printf("  dev%d ", d);
    for (int e = 0; e < kDevices; ++e) std::printf(" %5.1f%%", 100.0 * m[d][e]);
    std::printf("\n");
  }
}

struct HotSwapResult {
  double accuracy_before = 0.0;
  double accuracy_after = 0.0;
  std::uint64_t model_swaps = 0;
  int registry_versions = 0;
};

/// Publishes baseline + recalibrated templates through the model registry
/// and hot-swaps a live stream between them mid-corpus.
HotSwapResult hot_swap_demo(const core::TransferEvaluator& evaluator,
                            int test_device) {
  const core::TransferEvaluator::FieldData fd = evaluator.capture_field(test_device);
  const std::size_t max_budget = evaluator.config().budgets.back();
  core::HierarchicalDisassembler recal = evaluator.recalibrated(
      evaluator.budget_slice(fd.recal_pool, max_budget), core::RecalMode::kRefit);

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "sidis-transfer-registry";
  std::filesystem::remove_all(root);
  runtime::ModelRegistry registry(root);
  registry.save("transfer-monitor", evaluator.model());
  registry.save("transfer-monitor", recal);

  // The monitor starts on the profiling templates (v1), then a recalibrated
  // artifact lands in the registry and gets swapped in without stopping the
  // stream.
  const auto v1 = std::make_shared<const core::HierarchicalDisassembler>(
      registry.load("transfer-monitor", 1));
  const auto v2 = std::make_shared<const core::HierarchicalDisassembler>(
      registry.load("transfer-monitor", 2));

  HotSwapResult out;
  out.registry_versions = registry.latest_version("transfer-monitor");
  runtime::FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 2;
  cfg.admission = runtime::AdmissionPolicy::kBlock;
  runtime::FleetFrontend fleet(v1, cfg);
  const auto id = fleet.open_stream();
  const std::size_t half = fd.field.size() / 2;
  std::size_t hits_before = 0, hits_after = 0;

  std::size_t emitted = 0;
  const auto score = [&](const runtime::FleetResult& r) {
    const bool hit =
        r.value.class_idx == fd.field[r.stream_sequence].meta.class_idx;
    if (r.stream_sequence < half) {
      hits_before += hit ? 1 : 0;
    } else {
      hits_after += hit ? 1 : 0;
    }
    ++emitted;
  };
  for (std::size_t i = 0; i < half; ++i) fleet.submit(id, fd.field[i]);
  while (emitted < half) {
    if (const auto r = fleet.poll(id)) {
      score(*r);
    } else {
      std::this_thread::yield();
    }
  }
  fleet.swap_stage(id, runtime::make_stage(v2));
  for (std::size_t i = half; i < fd.field.size(); ++i) fleet.submit(id, fd.field[i]);
  for (const runtime::FleetResult& r : fleet.close_stream(id)) score(r);

  out.accuracy_before = static_cast<double>(hits_before) / static_cast<double>(half);
  out.accuracy_after = static_cast<double>(hits_after) /
                       static_cast<double>(fd.field.size() - half);
  out.model_swaps = fleet.stats().runtime.model_swaps;
  std::filesystem::remove_all(root);
  return out;
}

/// Fleet-pooled zero-shot transfer: devices {0..4} profiled at nominal +
/// 6-bit acquisition, evaluated on corner-sampled device 7 with no budget.
core::MultiDeviceResult run_multi_device(const core::TransferConfig& cfg_csa,
                                         core::MultiDeviceConfig& md) {
  md.train_devices = {0, 1, 2, 3, 4};
  md.holdout_device = 7;
  md.holdout_corner = true;
  md.configs = {sim::AcquisitionConfig::nominal(),
                sim::AcquisitionConfig::low_resolution(6)};
  md.traces_per_class = static_cast<std::size_t>(fast_mode() ? 24 : 40);
  md.test_traces_per_class = cfg_csa.test_traces_per_class;
  return core::evaluate_multi_device(md, cfg_csa);
}

void write_json(const std::string& path,
                const std::vector<std::vector<double>>& csa,
                const std::vector<std::vector<double>>& nocsa,
                const std::vector<core::BudgetPoint>& curve,
                const HotSwapResult& swap, std::size_t test_per_class,
                const core::MultiDeviceConfig& md,
                const core::MultiDeviceResult& zs) {
  const MatrixStats s_csa = matrix_stats(csa);
  const MatrixStats s_nocsa = matrix_stats(nocsa);
  const double drop_nocsa = s_nocsa.diag_mean - s_nocsa.offdiag_mean;
  const double recovered =
      drop_nocsa <= 0.0
          ? 1.0
          : (s_csa.offdiag_mean - s_nocsa.offdiag_mean) / drop_nocsa;
  bool monotone = true;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    // "Monotone within noise": each budget step may lose at most 3 points
    // to sampling noise, and the full budget must beat no adaptation.
    if (curve[i].renorm_accuracy < curve[i - 1].renorm_accuracy - 0.03) monotone = false;
  }
  if (!curve.empty() &&
      curve.back().renorm_accuracy < curve.front().renorm_accuracy) {
    monotone = false;
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"table4_transfer\",\n");
  std::fprintf(f,
               "  \"config\": {\"devices\": %d, \"classes\": %zu, "
               "\"test_traces_per_class\": %zu},\n",
               kDevices, eval_classes().size(), test_per_class);
  const auto write_matrix = [&](const char* key,
                                const std::vector<std::vector<double>>& m,
                                const char* tail) {
    std::fprintf(f, "  \"%s\": [\n", key);
    for (int d = 0; d < kDevices; ++d) {
      std::fprintf(f, "    [");
      for (int e = 0; e < kDevices; ++e) {
        std::fprintf(f, "%.4f%s", m[d][e], e + 1 < kDevices ? ", " : "");
      }
      std::fprintf(f, "]%s\n", d + 1 < kDevices ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", tail);
  };
  write_matrix("matrix_csa", csa, ",");
  write_matrix("matrix_without_csa", nocsa, ",");
  std::fprintf(f, "  \"summary\": {\n");
  std::fprintf(f, "    \"diag_csa\": %.4f, \"offdiag_csa\": %.4f,\n", s_csa.diag_mean,
               s_csa.offdiag_mean);
  std::fprintf(f, "    \"diag_without_csa\": %.4f, \"offdiag_without_csa\": %.4f,\n",
               s_nocsa.diag_mean, s_nocsa.offdiag_mean);
  std::fprintf(f, "    \"cross_device_drop_without_csa\": %.4f,\n", drop_nocsa);
  std::fprintf(f, "    \"csa_gap_recovered_fraction\": %.4f,\n", recovered);
  std::fprintf(f, "    \"criterion_cross_device_drop\": %s,\n",
               drop_nocsa >= 0.20 ? "true" : "false");
  std::fprintf(f, "    \"criterion_csa_recovery\": %s\n",
               recovered >= 0.5 ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"budget_curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::fprintf(f,
                 "    {\"budget_per_class\": %zu, \"renorm_accuracy\": %.4f, "
                 "\"refit_accuracy\": %.4f}%s\n",
                 curve[i].budget_per_class, curve[i].renorm_accuracy,
                 curve[i].refit_accuracy, i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"criterion_curve_monotone\": %s,\n", monotone ? "true" : "false");
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
  std::fprintf(f, "  \"criterion_zero_shot_lift\": %s,\n",
               zs.pooled_lift > 0.0 ? "true" : "false");
  std::fprintf(f,
               "  \"hot_swap\": {\"accuracy_before\": %.4f, \"accuracy_after\": "
               "%.4f, \"model_swaps\": %llu, \"registry_versions\": %d}\n",
               swap.accuracy_before, swap.accuracy_after,
               static_cast<unsigned long long>(swap.model_swaps),
               swap.registry_versions);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sidis::bench

int main() {
  using namespace sidis;
  using namespace sidis::bench;

  print_header("Table 4 -- cross-device transfer matrix + recalibration budgets");
  const core::TransferConfig cfg_csa = make_config(/*csa=*/true);
  const core::TransferConfig cfg_nocsa = make_config(/*csa=*/false);
  std::printf("  %d devices, %zu classes, train %zu / test %zu traces per class\n",
              kDevices, cfg_csa.classes.size(), cfg_csa.train_traces_per_class,
              cfg_csa.test_traces_per_class);

  std::vector<std::vector<double>> m_csa(kDevices, std::vector<double>(kDevices, 0.0));
  std::vector<std::vector<double>> m_nocsa(kDevices, std::vector<double>(kDevices, 0.0));
  std::vector<core::BudgetPoint> curve(cfg_csa.budgets.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    curve[i].budget_per_class = cfg_csa.budgets[i];
  }
  std::size_t curve_cells = 0;

  HotSwapResult swap;
  for (int train = 0; train < kDevices; ++train) {
    const core::TransferEvaluator eval_csa(train, cfg_csa);
    const core::TransferEvaluator eval_nocsa(train, cfg_nocsa);
    for (int test = 0; test < kDevices; ++test) {
      if (train == 0 && test != 0) {
        // Row 0 doubles as the recalibration-budget sweep (the paper's
        // protocol: one profiling device, many deployment devices).
        const core::TransferCell cell = eval_csa.evaluate(test);
        m_csa[train][test] = cell.baseline_accuracy;
        for (std::size_t i = 0; i < cell.curve.size() && i < curve.size(); ++i) {
          curve[i].renorm_accuracy += cell.curve[i].renorm_accuracy;
          curve[i].refit_accuracy += cell.curve[i].refit_accuracy;
        }
        ++curve_cells;
      } else {
        const auto fd = eval_csa.capture_field(test);
        m_csa[train][test] = eval_csa.accuracy(eval_csa.model(), fd.field);
      }
      const auto fd = eval_nocsa.capture_field(test);
      m_nocsa[train][test] = eval_nocsa.accuracy(eval_nocsa.model(), fd.field);
      std::printf("  train dev%d -> test dev%d: csa %5.1f%%, without %5.1f%%\n",
                  train, test, 100.0 * m_csa[train][test],
                  100.0 * m_nocsa[train][test]);
      std::fflush(stdout);
    }
    if (train == 0) swap = hot_swap_demo(eval_csa, /*test_device=*/1);
  }
  for (core::BudgetPoint& p : curve) {
    p.renorm_accuracy /= static_cast<double>(curve_cells);
    p.refit_accuracy /= static_cast<double>(curve_cells);
  }

  print_matrix("with CSA", m_csa);
  print_matrix("without CSA", m_nocsa);

  const MatrixStats s_csa = matrix_stats(m_csa);
  const MatrixStats s_nocsa = matrix_stats(m_nocsa);
  std::printf("\n  diagonal mean:      csa %5.1f%%, without %5.1f%%\n",
              100.0 * s_csa.diag_mean, 100.0 * s_nocsa.diag_mean);
  std::printf("  off-diagonal mean:  csa %5.1f%%, without %5.1f%%\n",
              100.0 * s_csa.offdiag_mean, 100.0 * s_nocsa.offdiag_mean);

  std::printf("\n  recalibration budget curve (train dev0, mean over dev1..%d):\n",
              kDevices - 1);
  std::printf("  %-18s %10s %10s\n", "budget/class", "renorm", "refit");
  for (const core::BudgetPoint& p : curve) {
    std::printf("  K = %-14zu %9.1f%% %9.1f%%\n", p.budget_per_class,
                100.0 * p.renorm_accuracy, 100.0 * p.refit_accuracy);
  }

  std::printf("\n  registry hot-swap on dev1: %5.1f%% -> %5.1f%% "
              "(swaps: %llu, versions: %d)\n",
              100.0 * swap.accuracy_before, 100.0 * swap.accuracy_after,
              static_cast<unsigned long long>(swap.model_swaps),
              swap.registry_versions);

  std::printf("\n  fleet-pooled zero-shot on corner device (no recal budget):\n");
  core::MultiDeviceConfig md;
  const core::MultiDeviceResult zs = run_multi_device(cfg_csa, md);
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
  write_json(out != nullptr && *out != '\0' ? out : "BENCH_transfer.json", m_csa,
             m_nocsa, curve, swap, cfg_csa.test_traces_per_class, md, zs);
  return 0;
}
