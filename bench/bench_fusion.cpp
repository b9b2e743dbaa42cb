// Multimodal power+EM fusion bench: the headline experiment for the
// hierarchical fusion layer.
//
// One paired acquisition campaign profiles every instruction class over both
// channels (supply-current shunt + simulated EM probe), trains one
// single-channel hierarchy per modality, fits the joint feature heads, and
// lets held-out calibration pick the per-level fusion operating point.  The
// bench then measures what the ISSUE gates on:
//
//   * clean-task accuracy of power-only, EM-only and fused disassembly on
//     unseen paired windows over the 112-class task -- the fused point must
//     not fall below the better single channel (calibration may *select*
//     one channel, in which case equality holds);
//   * a compound-degradation sweep -- power gain aging plus EM probe
//     misalignment creep, growing together with severity -- where graceful
//     degradation requires the fused curve to stay at or above the
//     power-only curve at EVERY severity while flagging the windows it had
//     to degrade.
//
// SIDIS_FAST=1 shrinks the task to two classes per group (16 classes) and a
// three-point sweep; results go to BENCH_fusion.json (override with
// SIDIS_BENCH_OUT), gated in CI by `bench/check.py fusion` like the other
// benches.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/fusion.hpp"
#include "core/hierarchical.hpp"

namespace sidis::bench {
namespace {

constexpr std::uint64_t kSeed = 0xf05edbe9c;

struct DegradationPoint {
  double severity = 0.0;       ///< abstract compound-fault severity
  double aging_gain = 0.0;     ///< power-channel aging gain drift applied
  double misalignment = 0.0;   ///< EM probe misalignment reached at progress 1
  double power_accuracy = 0.0;
  double fused_accuracy = 0.0;
  double degraded_fraction = 0.0;  ///< fused verdicts not kOk
};

struct FusionBenchRun {
  std::size_t classes = 0;
  std::size_t train_per_class = 0;
  std::size_t eval_per_class = 0;
  double power_accuracy = 0.0;
  double em_accuracy = 0.0;
  double fused_accuracy = 0.0;
  double heldout_accuracy = 0.0;  ///< calibrate_fusion's selection score
  core::LevelFusion group_fusion;
  core::LevelFusion instruction_fusion;
  std::vector<DegradationPoint> degradation;
};

std::vector<std::size_t> bench_classes() {
  std::vector<std::size_t> classes;
  for (int g = 1; g <= 8; ++g) {
    const auto cls = avr::classes_in_group(g);
    if (fast_mode()) {
      // Smoke scale: the first and last class of every group keeps all
      // eight groups (and the group-level fusion head) exercised.
      classes.push_back(cls.front());
      classes.push_back(cls.back());
    } else {
      classes.insert(classes.end(), cls.begin(), cls.end());
    }
  }
  return classes;
}

sim::AcquisitionOptions paired_options(double misalignment_drift = 0.0) {
  sim::AcquisitionOptions opts;
  opts.em.enabled = true;
  // A realistic near-field probe is appreciably noisier and narrower-band
  // than the shunt channel, and its per-opcode coupling spread is modest --
  // the EmProbeConfig defaults lean cleaner and wider so the unit tests
  // stay cheap, but a wide coupling spread acts as a per-class amplitude
  // label that makes the probe channel implausibly dominant.  Hardening the
  // probe makes each channel commit its own errors, so held-out calibration
  // has a real mix to find and the fused point has single-channel mistakes
  // to correct.
  opts.em.noise_sigma = 0.05;
  opts.em.bandwidth_fraction = 0.08;
  opts.em.coupling_lo = 0.85;
  opts.em.coupling_hi = 1.15;
  opts.em.misalignment_drift = misalignment_drift;
  return opts;
}

FusionBenchRun run_scenario(const std::vector<std::size_t>& classes,
                            std::size_t per_class, std::size_t heldout_per_class,
                            std::size_t eval_per_class,
                            const std::vector<double>& severities) {
  FusionBenchRun run;
  run.classes = classes.size();
  run.train_per_class = per_class;
  run.eval_per_class = eval_per_class;

  // -- paired profiling + per-channel training -------------------------------
  const sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0),
                                          sim::LeakageConfig{}, sim::ScopeConfig{},
                                          paired_options()};
  std::mt19937_64 rng{kSeed};
  core::ProfilingData power_data, em_data;
  std::map<std::size_t, sim::TraceSet> paired;
  std::printf("  profiling %zu classes x %zu paired traces...\n", classes.size(),
              per_class);
  std::size_t done = 0;
  for (std::size_t cls : classes) {
    paired[cls] = campaign.capture_class(cls, per_class, 3, rng);
    power_data.classes[cls] = sim::channel_views(paired[cls], sim::Channel::kPower);
    em_data.classes[cls] = sim::channel_views(paired[cls], sim::Channel::kEm);
    if (++done % 25 == 0 || done == classes.size()) {
      std::printf("    %zu / %zu classes\n", done, classes.size());
      std::fflush(stdout);
    }
  }
  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.factory.discriminant.shrinkage = 0.15;
  std::printf("  training the power-channel hierarchy...\n");
  auto p = core::HierarchicalDisassembler::train(power_data, cfg);
  std::printf("  training the EM-channel hierarchy...\n");
  auto e = core::HierarchicalDisassembler::train(em_data, cfg);

  // Held-out paired windows from programs the channels never trained on
  // (but disjoint from the evaluation programs), so every calibration below
  // sees deployment covariates rather than a saturated in-corpus replay.
  sim::TraceSet heldout;
  core::ProfilingData heldout_power, heldout_em;
  for (std::size_t cls : classes) {
    const sim::TraceSet h = campaign.capture_class(cls, heldout_per_class, 3, rng,
                                                   /*first_program=*/40);
    heldout_power.classes[cls] = sim::channel_views(h, sim::Channel::kPower);
    heldout_em.classes[cls] = sim::channel_views(h, sim::Channel::kEm);
    heldout.insert(heldout.end(), h.begin(), h.end());
  }
  // Monitoring-grade reject gates, calibrated on the HELD-OUT margins.
  // Training-set margins are optimistic: at 112-class scale the per-level
  // posterior gaps are thin enough that thresholds set on in-corpus windows
  // sit inside the margin shift induced by unseen programs, and the gates
  // then silently reject almost every clean field window (worst-verdict
  // folding collapses the fused point onto the power channel).  Calibrating
  // the false-reject budget where it is spent -- on out-of-corpus margins --
  // keeps clean windows flowing while genuinely broken ones still trip the
  // fallback.
  p.calibrate_reject(heldout_power);
  e.calibrate_reject(heldout_em);
  const auto power =
      std::make_shared<const core::HierarchicalDisassembler>(std::move(p));
  const auto em = std::make_shared<const core::HierarchicalDisassembler>(std::move(e));

  // -- fusion: joint heads + held-out operating-point selection --------------
  core::FusedDisassembler fused(power, em);
  std::printf("  fitting joint feature heads...\n");
  fused.train_feature_heads(paired);
  // Deployment policy: keep BOTH channels in the mix.  The clean held-out
  // set would happily select a single-channel corner (the probe is the
  // stronger channel on an aligned bench), but a monitor that throws one
  // modality away has no redundancy left when that modality drifts -- the
  // whole point of paying for a second probe.  The degenerate corners stay
  // covered by the bit-identity tests in fusion_test.
  core::FusionCalibration cal;
  cal.weight_grid = {0.75, 0.5, 0.25};
  run.heldout_accuracy = fused.calibrate_fusion(heldout, cal);
  run.group_fusion = fused.group_fusion();
  run.instruction_fusion = fused.instruction_fusion();

  // -- clean evaluation on unseen programs -----------------------------------
  std::size_t windows = 0, p_hits = 0, e_hits = 0, f_hits = 0;
  for (std::size_t cls : classes) {
    const sim::TraceSet eval =
        campaign.capture_class(cls, eval_per_class, 3, rng, /*first_program=*/50);
    for (const sim::Trace& t : eval) {
      ++windows;
      if (power->classify(sim::channel_view(t, sim::Channel::kPower)).class_idx == cls)
        ++p_hits;
      if (em->classify(sim::channel_view(t, sim::Channel::kEm)).class_idx == cls)
        ++e_hits;
      if (fused.classify(t).class_idx == cls) ++f_hits;
    }
  }
  const double n = static_cast<double>(windows);
  run.power_accuracy = static_cast<double>(p_hits) / n;
  run.em_accuracy = static_cast<double>(e_hits) / n;
  run.fused_accuracy = static_cast<double>(f_hits) / n;

  // -- compound-degradation sweep --------------------------------------------
  // Severity s drives both faults at once: the power channel ages (gain
  // multiplier 1 + 0.3 s reached at campaign progress 1) while the EM probe
  // creeps off its profiling position (misalignment 0.25 s at progress 1).
  // The profile is aging-dominant: electrical aging moves the shunt's
  // class-conditional templates faster than mechanical creep defocuses the
  // probe, which is the deployment regime where a second modality pays --
  // the fused curve must hold at or above power-only the whole way down.
  // The references stay clean -- the monitor keeps classifying field windows
  // against profiling-time templates, the Sec.-4 covariate-shift scenario.
  const std::size_t sweep_per_class = std::max<std::size_t>(3, eval_per_class / 2);
  std::printf("  degradation sweep (%zu severities x %zu classes x %zu windows)...\n",
              severities.size(), classes.size(), sweep_per_class);
  for (double s : severities) {
    DegradationPoint point;
    point.severity = s;
    point.aging_gain = 0.3 * s;
    point.misalignment = 0.25 * s;
    sim::DeviceModel device = sim::DeviceModel::make(0);
    device.aging_gain_drift = point.aging_gain;
    const sim::AcquisitionCampaign degraded{device, sim::SessionContext::make(0),
                                            sim::LeakageConfig{}, sim::ScopeConfig{},
                                            paired_options(point.misalignment)};
    std::mt19937_64 sweep_rng{kSeed + 17};
    std::size_t total = 0, power_hits = 0, fused_hits = 0, flagged = 0;
    for (std::size_t cls : classes) {
      for (std::size_t i = 0; i < sweep_per_class; ++i) {
        const sim::Trace t = degraded.capture_trace(
            avr::random_instance(cls, sweep_rng),
            sim::ProgramContext::make(50 + static_cast<int>(i) % 3), sweep_rng,
            /*campaign_progress=*/1.0);
        ++total;
        if (power->classify(sim::channel_view(t, sim::Channel::kPower)).class_idx ==
            cls) {
          ++power_hits;
        }
        const core::Disassembly d = fused.classify(t);
        if (d.class_idx == cls) ++fused_hits;
        if (d.verdict != core::Verdict::kOk) ++flagged;
      }
    }
    point.power_accuracy =
        static_cast<double>(power_hits) / static_cast<double>(total);
    point.fused_accuracy =
        static_cast<double>(fused_hits) / static_cast<double>(total);
    point.degraded_fraction =
        static_cast<double>(flagged) / static_cast<double>(total);
    run.degradation.push_back(point);
    std::printf("    severity %.2f: power %.1f%%  fused %.1f%%  flagged %.1f%%\n",
                s, 100.0 * point.power_accuracy, 100.0 * point.fused_accuracy,
                100.0 * point.degraded_fraction);
    std::fflush(stdout);
  }
  return run;
}

bool fusion_beats_singles(const FusionBenchRun& r) {
  return r.fused_accuracy >=
         std::max(r.power_accuracy, r.em_accuracy) - 1e-12;
}

bool degradation_holds(const FusionBenchRun& r) {
  for (const DegradationPoint& p : r.degradation) {
    if (p.fused_accuracy < p.power_accuracy - 1e-12) return false;
  }
  return !r.degradation.empty();
}

void write_json(const FusionBenchRun& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fusion\",\n");
  std::fprintf(f,
               "  \"config\": {\"classes\": %zu, \"train_per_class\": %zu, "
               "\"eval_per_class\": %zu},\n",
               r.classes, r.train_per_class, r.eval_per_class);
  std::fprintf(f,
               "  \"selected\": {\"group_mode\": \"%s\", \"group_power_weight\": "
               "%.2f, \"instruction_mode\": \"%s\", "
               "\"instruction_power_weight\": %.2f},\n",
               core::to_string(r.group_fusion.mode).c_str(),
               r.group_fusion.power_weight,
               core::to_string(r.instruction_fusion.mode).c_str(),
               r.instruction_fusion.power_weight);
  std::fprintf(f,
               "  \"clean\": {\"power\": %.4f, \"em\": %.4f, \"fused\": %.4f, "
               "\"heldout\": %.4f},\n",
               r.power_accuracy, r.em_accuracy, r.fused_accuracy,
               r.heldout_accuracy);
  std::fprintf(f, "  \"degradation\": [\n");
  for (std::size_t i = 0; i < r.degradation.size(); ++i) {
    const DegradationPoint& p = r.degradation[i];
    std::fprintf(f,
                 "    {\"severity\": %.2f, \"aging_gain\": %.2f, "
                 "\"misalignment\": %.2f, \"power\": %.4f, \"fused\": %.4f, "
                 "\"degraded_fraction\": %.4f}%s\n",
                 p.severity, p.aging_gain, p.misalignment, p.power_accuracy,
                 p.fused_accuracy, p.degraded_fraction,
                 i + 1 < r.degradation.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"criterion_fusion_beats_singles\": %s,\n"
               "  \"criterion_degradation_holds\": %s\n}\n",
               fusion_beats_singles(r) ? "true" : "false",
               degradation_holds(r) ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sidis::bench

int main() {
  using namespace sidis;
  using namespace sidis::bench;

  print_header("Multimodal power+EM fusion -- clean accuracy and degradation");

  const std::vector<std::size_t> classes = bench_classes();
  const std::size_t per_class = traces_per_class(60);
  const std::size_t heldout_per_class =
      static_cast<std::size_t>(env_int("SIDIS_HELDOUT_PER_CLASS", fast_mode() ? 6 : 8));
  const std::size_t eval_per_class =
      static_cast<std::size_t>(env_int("SIDIS_EVAL_PER_CLASS", fast_mode() ? 5 : 10));
  const std::vector<double> severities =
      fast_mode() ? std::vector<double>{0.0, 1.0, 2.0}
                  : std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0};

  const FusionBenchRun run =
      run_scenario(classes, per_class, heldout_per_class, eval_per_class, severities);

  std::printf("\n  clean task (%zu classes, %zu unseen windows/class):\n",
              run.classes, run.eval_per_class);
  bench::print_row("power only", 99.53, 100.0 * run.power_accuracy);
  bench::print_row("EM only", 99.53, 100.0 * run.em_accuracy);
  bench::print_row("fused", 99.53, 100.0 * run.fused_accuracy);
  std::printf("  selected: group %s (w_p %.2f), instruction %s (w_p %.2f), "
              "held-out %.1f%%\n",
              core::to_string(run.group_fusion.mode).c_str(),
              run.group_fusion.power_weight,
              core::to_string(run.instruction_fusion.mode).c_str(),
              run.instruction_fusion.power_weight, 100.0 * run.heldout_accuracy);

  std::printf("\n  %-9s %10s %10s %10s\n", "severity", "power", "fused", "flagged");
  for (const auto& p : run.degradation) {
    std::printf("  %-9.2f %9.1f%% %9.1f%% %9.1f%%\n", p.severity,
                100.0 * p.power_accuracy, 100.0 * p.fused_accuracy,
                100.0 * p.degraded_fraction);
  }
  std::printf("\n  criteria: fused >= best single channel: %s; fused >= power-only "
              "at every severity: %s\n",
              fusion_beats_singles(run) ? "PASS" : "FAIL",
              degradation_holds(run) ? "PASS" : "FAIL");

  const char* out = std::getenv("SIDIS_BENCH_OUT");
  write_json(run, out != nullptr && *out != '\0' ? out : "BENCH_fusion.json");
  return 0;
}
