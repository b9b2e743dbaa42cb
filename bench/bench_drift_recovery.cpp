// Drift detection + self-scheduled recalibration recovery bench.
//
// One seeded deployment scenario, end to end: a model profiled on the healthy
// device serves a live stream; partway in, the device starts aging (linear
// gain ramp).  A runtime::DriftMonitor watches the emissions, a
// runtime::RecalibrationScheduler answers its events with budgeted labeled
// captures and hot-swaps the recalibrated model into the serving stream via
// the ModelRegistry.  The bench measures what the ISSUE asks for:
//
//   * the drift magnitude in calibrated units (feature-mean shift in
//     training sigmas at full drift -- must be >= 2 sigma),
//   * detection latency in windows from drift onset,
//   * the accuracy-dip depth while the stale model served drifted windows,
//   * post-recovery accuracy (final published model on fully drifted
//     captures) against the clean baseline -- must land within 2 points,
//   * the labeled-trace spend against its budget.
//
// A per-batch timeline (accuracy, z_rms, active model stamp) shows the whole
// arc.  Results go to BENCH_drift.json (override with SIDIS_BENCH_OUT),
// diffed in CI by `bench/check.py drift` exactly like the transfer bench.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "avr/program.hpp"
#include "bench/common.hpp"
#include "core/csa.hpp"
#include "runtime/drift.hpp"
#include "runtime/fleet.hpp"
#include "runtime/recal.hpp"
#include "runtime/registry.hpp"

namespace sidis::bench {
namespace {

constexpr std::uint64_t kSeed = 0xd21f75eed;

/// Aging gain ramp at full campaign progress; override (in percent) with
/// SIDIS_GAIN_DRIFT_PCT to sweep detection latency vs drift magnitude.
double aging_gain_drift() {
  return env_int("SIDIS_GAIN_DRIFT_PCT", 70) / 100.0;
}

struct BatchPoint {
  std::size_t first_window = 0;
  double accuracy = 0.0;
  double z_rms = 0.0;
  std::uint64_t model_stamp = 0;
};

struct DriftBenchRun {
  // drift geometry
  std::size_t stream_windows = 0;
  std::size_t onset_window = 0;
  double feature_shift_sigma = 0.0;
  // detection
  bool detected = false;
  std::size_t detected_window = 0;
  std::size_t latency_windows = 0;
  std::size_t window_budget = 0;
  std::string trigger;
  std::size_t events = 0;
  // recovery
  double clean_accuracy = 0.0;
  double dip_accuracy = 1.0;
  double stale_final_accuracy = 0.0;
  double recovered_final_accuracy = 0.0;
  // spend
  std::uint64_t recalibrations = 0;
  std::uint64_t traces_spent = 0;
  std::size_t trace_budget = 0;
  std::uint64_t model_swaps = 0;
  int registry_versions = 0;
  std::vector<BatchPoint> timeline;
};

const std::vector<std::size_t>& drift_classes() {
  // Same-group ALU classes: level-2 fine discrimination is where a gain ramp
  // costs accuracy (cross-group sets shrug off far larger shifts).
  static const std::vector<std::size_t> classes = {class_id(avr::Mnemonic::kAdd),
                                                   class_id(avr::Mnemonic::kAdc),
                                                   class_id(avr::Mnemonic::kSub)};
  return classes;
}

double accuracy_on(const core::HierarchicalDisassembler& model,
                   const sim::TraceSet& set) {
  std::size_t hits = 0;
  for (const sim::Trace& t : set) {
    if (model.classify(t).class_idx == t.meta.class_idx) ++hits;
  }
  return set.empty() ? 0.0 : static_cast<double>(hits) / static_cast<double>(set.size());
}

sim::TraceSet eval_corpus(const sim::AcquisitionCampaign& campaign, std::size_t n,
                          double progress, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  sim::TraceSet out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(campaign.capture_trace(
        avr::random_instance(drift_classes()[i % drift_classes().size()], rng, {}),
        sim::ProgramContext::make(static_cast<int>(i % 3)), rng, progress));
  }
  return out;
}

DriftBenchRun run_scenario(std::size_t stream_windows, std::size_t per_class_train,
                           const std::filesystem::path& registry_root) {
  DriftBenchRun run;
  run.stream_windows = stream_windows;
  run.onset_window = stream_windows / 5;          // clean plateau, then ramp
  run.window_budget = stream_windows / 2;          // detection latency budget

  // -- profile + train on the healthy device ---------------------------------
  sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                 sim::SessionContext::make(0)};
  std::mt19937_64 rng{kSeed};
  core::ProfilingData data;
  for (std::size_t cls : drift_classes()) {
    data.classes[cls] = clean.capture_class(cls, per_class_train, 3, rng);
  }
  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.pipeline.pca_components = 10;
  cfg.group_components = 8;
  cfg.instruction_components = 8;
  const auto model = std::make_shared<const core::HierarchicalDisassembler>(
      core::HierarchicalDisassembler::train(data, cfg));

  // -- the aging device and its stream ---------------------------------------
  sim::DeviceModel aged = sim::DeviceModel::make(0);
  aged.aging_gain_drift = aging_gain_drift();
  const sim::AcquisitionCampaign drifting{aged, sim::SessionContext::make(0)};

  const auto progress_at = [&](std::size_t i) {
    if (i <= run.onset_window) return 0.0;
    return static_cast<double>(i - run.onset_window) /
           static_cast<double>(stream_windows - 1 - run.onset_window);
  };
  sim::TraceSet windows;
  std::mt19937_64 stream_rng{kSeed + 1};
  for (std::size_t i = 0; i < stream_windows; ++i) {
    windows.push_back(drifting.capture_trace(
        avr::random_instance(drift_classes()[i % drift_classes().size()], stream_rng, {}),
        sim::ProgramContext::make(static_cast<int>(i % 3)), stream_rng, progress_at(i)));
  }

  // Drift magnitude in calibrated units: feature-mean displacement of fully
  // drifted captures, in training sigmas (RMS over monitor features).
  {
    const sim::TraceSet probe = eval_corpus(drifting, 45, 1.0, kSeed + 7);
    const core::FeatureMoments& m = model->training_moments();
    linalg::Vector mean(m.mean.size(), 0.0);
    for (const sim::Trace& t : probe) {
      const linalg::Vector f = model->monitor_features(t);
      for (std::size_t c = 0; c < mean.size(); ++c) mean[c] += f[c];
    }
    double z_sq = 0.0;
    for (std::size_t c = 0; c < mean.size(); ++c) {
      mean[c] /= static_cast<double>(probe.size());
      const double sigma = std::sqrt(std::max(m.variance[c], 1e-12));
      const double z = (mean[c] - m.mean[c]) / sigma;
      z_sq += z * z;
    }
    run.feature_shift_sigma = std::sqrt(z_sq / static_cast<double>(mean.size()));
  }

  // -- the serving loop: one-stream fleet + monitor + scheduler + registry ---
  std::filesystem::remove_all(registry_root);
  runtime::ModelRegistry registry(registry_root);
  runtime::FleetConfig fcfg;
  fcfg.shards = 1;
  fcfg.workers_per_shard = 2;
  fcfg.admission = runtime::AdmissionPolicy::kBlock;
  runtime::FleetFrontend fleet(model, fcfg);
  const auto id = fleet.open_stream();
  runtime::DriftConfig dcfg;
  dcfg.z_threshold = 2.5;  // monitoring-grade sensitivity (see regression_test)
  dcfg.cooldown = 40;
  runtime::DriftMonitor monitor(model, dcfg);
  runtime::CampaignCalibrationSource source(drifting, drift_classes(), 3, kSeed + 2);
  runtime::RecalPolicy policy;
  policy.traces_per_class = 8;
  policy.trace_budget = 72;  // three rounds of 8 x 3 classes
  policy.rescale = true;     // a gain ramp moves stddevs, not just means
  run.trace_budget = policy.trace_budget;
  runtime::RecalibrationScheduler scheduler(fleet, id, model, source, policy, &registry);

  const std::size_t batch = std::max<std::size_t>(10, stream_windows / 20);
  for (std::size_t base = 0; base < windows.size(); base += batch) {
    const std::size_t end = std::min(windows.size(), base + batch);
    BatchPoint point;
    point.first_window = base;
    std::size_t hits = 0;
    for (std::size_t i = base; i < end; ++i) (void)fleet.submit(id, windows[i]);
    std::size_t emitted = base;
    while (emitted < end) {
      if (auto r = fleet.poll(id)) {
        const sim::Trace& window = windows[r->stream_sequence];
        monitor.observe(window, r->value);
        if (r->value.class_idx == window.meta.class_idx) ++hits;
        point.model_stamp = r->model_stamp;
        ++emitted;
      }
    }
    point.accuracy = static_cast<double>(hits) / static_cast<double>(end - base);
    point.z_rms = monitor.z_rms();
    run.timeline.push_back(point);
    if (base >= run.onset_window) {
      run.dip_accuracy = std::min(run.dip_accuracy, point.accuracy);
    }
    if (const auto event = monitor.poll_event()) {
      if (!run.detected) {
        run.detected = true;
        run.detected_window = static_cast<std::size_t>(event->observation);
        run.latency_windows = run.detected_window > run.onset_window
                                  ? run.detected_window - run.onset_window
                                  : 0;
        run.trigger = runtime::to_string(event->trigger);
      }
      ++run.events;
      source.set_progress(progress_at(end - 1));
      (void)scheduler.on_drift(*event, monitor);
    }
  }
  (void)fleet.close_stream(id);
  run.recalibrations = scheduler.recalibrations();
  run.traces_spent = scheduler.traces_spent();
  run.model_swaps = fleet.stats().runtime.model_swaps;
  run.registry_versions =
      registry.names().empty() ? 0 : registry.latest_version(policy.registry_name);

  // -- paired final evaluation ----------------------------------------------
  const sim::TraceSet eval_clean = eval_corpus(clean, 75, 0.0, kSeed + 3);
  const sim::TraceSet eval_aged = eval_corpus(drifting, 75, 1.0, kSeed + 3);
  run.clean_accuracy = accuracy_on(*model, eval_clean);
  run.stale_final_accuracy = accuracy_on(*model, eval_aged);
  run.recovered_final_accuracy = accuracy_on(*scheduler.active_model(), eval_aged);
  return run;
}

void write_json(const DriftBenchRun& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const bool shift_ok = r.feature_shift_sigma >= 2.0;
  const bool detect_ok = r.detected && r.latency_windows <= r.window_budget;
  const bool recover_ok = r.recovered_final_accuracy >= r.clean_accuracy - 0.02;
  const bool budget_ok = r.traces_spent <= r.trace_budget;
  const bool swap_ok = r.model_swaps >= 1 && r.registry_versions >= 1;
  std::fprintf(f, "{\n  \"bench\": \"drift_recovery\",\n");
  std::fprintf(f,
               "  \"config\": {\"classes\": %zu, \"stream_windows\": %zu, "
               "\"aging_gain_drift\": %.2f},\n",
               drift_classes().size(), r.stream_windows, aging_gain_drift());
  std::fprintf(f,
               "  \"drift\": {\"onset_window\": %zu, \"feature_shift_sigma\": %.3f, "
               "\"criterion_shift_at_least_2sigma\": %s},\n",
               r.onset_window, r.feature_shift_sigma, shift_ok ? "true" : "false");
  std::fprintf(f,
               "  \"detection\": {\"detected_window\": %zu, \"latency_windows\": %zu, "
               "\"window_budget\": %zu, \"trigger\": \"%s\", \"events\": %zu,\n"
               "                \"criterion_detected_within_budget\": %s},\n",
               r.detected_window, r.latency_windows, r.window_budget, r.trigger.c_str(),
               r.events, detect_ok ? "true" : "false");
  std::fprintf(f,
               "  \"recovery\": {\"clean_accuracy\": %.4f, \"dip_accuracy\": %.4f, "
               "\"dip_depth\": %.4f,\n               \"stale_final_accuracy\": %.4f, "
               "\"recovered_final_accuracy\": %.4f,\n"
               "               \"criterion_recovered_within_2pts\": %s},\n",
               r.clean_accuracy, r.dip_accuracy, r.clean_accuracy - r.dip_accuracy,
               r.stale_final_accuracy, r.recovered_final_accuracy,
               recover_ok ? "true" : "false");
  std::fprintf(f,
               "  \"recal\": {\"recalibrations\": %llu, \"traces_spent\": %llu, "
               "\"trace_budget\": %zu, \"model_swaps\": %llu, "
               "\"registry_versions\": %d,\n            "
               "\"criterion_budget_respected\": %s, \"criterion_hot_swapped\": %s},\n",
               static_cast<unsigned long long>(r.recalibrations),
               static_cast<unsigned long long>(r.traces_spent), r.trace_budget,
               static_cast<unsigned long long>(r.model_swaps), r.registry_versions,
               budget_ok ? "true" : "false", swap_ok ? "true" : "false");
  std::fprintf(f, "  \"timeline\": [\n");
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    const BatchPoint& p = r.timeline[i];
    std::fprintf(f,
                 "    {\"window\": %zu, \"accuracy\": %.4f, \"z_rms\": %.3f, "
                 "\"model_stamp\": %llu}%s\n",
                 p.first_window, p.accuracy, p.z_rms,
                 static_cast<unsigned long long>(p.model_stamp),
                 i + 1 < r.timeline.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sidis::bench

int main() {
  using namespace sidis;
  using namespace sidis::bench;

  print_header("Drift detection + self-scheduled recalibration recovery");
  const std::size_t stream_windows =
      static_cast<std::size_t>(env_int("SIDIS_STREAM_WINDOWS", fast_mode() ? 300 : 400));
  const std::size_t per_class = traces_per_class(60);
  const auto registry_root =
      std::filesystem::temp_directory_path() / "sidis_bench_drift_registry";

  const DriftBenchRun run = run_scenario(stream_windows, per_class, registry_root);

  std::printf("\nscenario: %zu windows, aging gain ramp +%.0f%% from window %zu\n",
              run.stream_windows, 100.0 * aging_gain_drift(), run.onset_window);
  std::printf("feature-mean shift at full drift: %.2f training sigmas (>= 2 required)\n",
              run.feature_shift_sigma);
  if (run.detected) {
    std::printf("detected at window %zu (latency %zu, budget %zu, trigger %s), "
                "%zu event(s)\n",
                run.detected_window, run.latency_windows, run.window_budget,
                run.trigger.c_str(), run.events);
  } else {
    std::printf("NOT DETECTED within the stream\n");
  }
  std::printf("recalibrations: %llu, labeled traces spent %llu / %zu, "
              "model swaps %llu, registry versions %d\n",
              static_cast<unsigned long long>(run.recalibrations),
              static_cast<unsigned long long>(run.traces_spent), run.trace_budget,
              static_cast<unsigned long long>(run.model_swaps), run.registry_versions);
  std::printf("accuracy: clean %.1f%%, dip %.1f%% (depth %.1f pts), stale-final %.1f%%, "
              "recovered %.1f%%\n",
              100.0 * run.clean_accuracy, 100.0 * run.dip_accuracy,
              100.0 * (run.clean_accuracy - run.dip_accuracy),
              100.0 * run.stale_final_accuracy, 100.0 * run.recovered_final_accuracy);

  std::printf("\n  %-8s %9s %7s %12s\n", "window", "accuracy", "z_rms", "model-stamp");
  for (const BatchPoint& p : run.timeline) {
    std::printf("  %-8zu %8.1f%% %7.2f %12llu\n", p.first_window, 100.0 * p.accuracy,
                p.z_rms, static_cast<unsigned long long>(p.model_stamp));
  }

  const char* out = std::getenv("SIDIS_BENCH_OUT");
  write_json(run, out != nullptr && *out != '\0' ? out : "BENCH_drift.json");
  return 0;
}
