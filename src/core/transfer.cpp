#include "core/transfer.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "runtime/parallel_for.hpp"
#include "sim/hash.hpp"

namespace sidis::core {

namespace {

std::mt19937_64 stream_rng(std::uint64_t seed, std::uint64_t salt, int device,
                           std::size_t class_idx) {
  const std::uint64_t dev_key =
      sim::hash_combine(salt, static_cast<std::uint64_t>(device));
  return std::mt19937_64(sim::splitmix64(
      sim::hash_combine(seed, sim::hash_combine(dev_key, class_idx))));
}

/// Interleaves per-class capture sets round-robin: out[k * C + c] is class
/// c's k-th trace, so every prefix of K * C traces is class-balanced.
sim::TraceSet interleave(const std::vector<sim::TraceSet>& per_class) {
  sim::TraceSet out;
  if (per_class.empty()) return out;
  const std::size_t depth = per_class.front().size();
  out.reserve(depth * per_class.size());
  for (std::size_t k = 0; k < depth; ++k) {
    for (const sim::TraceSet& set : per_class) {
      if (k < set.size()) out.push_back(set[k]);
    }
  }
  return out;
}

/// Fraction of `field` windows whose predicted class matches ground truth;
/// parallel over traces, worker-count invariant (shared with the evaluator).
double field_accuracy(const HierarchicalDisassembler& model,
                      const sim::TraceSet& field, std::size_t workers) {
  if (field.empty()) return 0.0;
  std::vector<std::uint8_t> hit(field.size(), 0);
  runtime::parallel_for(field.size(), workers, [&](std::size_t i) {
    hit[i] = model.classify(field[i]).class_idx == field[i].meta.class_idx ? 1 : 0;
  });
  const std::size_t correct =
      static_cast<std::size_t>(std::accumulate(hit.begin(), hit.end(), 0u));
  return static_cast<double>(correct) / static_cast<double>(field.size());
}

}  // namespace

std::string to_string(RecalMode mode) {
  switch (mode) {
    case RecalMode::kRenorm: return "renorm";
    case RecalMode::kRefit: return "refit";
  }
  return "unknown";
}

HierarchicalDisassembler recalibrated_copy(const HierarchicalDisassembler& model,
                                           const sim::TraceSet& recal, RecalMode mode,
                                           bool rescale, const ProfilingData* profiling) {
  if (mode == RecalMode::kRefit && profiling == nullptr) {
    throw std::invalid_argument("recalibrated_copy: kRefit needs a profiling corpus");
  }
  // HierarchicalDisassembler is move-only (levels own their classifiers), so
  // the copy goes through the template serializer -- the same round trip a
  // deployed monitor performs when loading templates.
  std::stringstream ss;
  model.save(ss);
  HierarchicalDisassembler m = HierarchicalDisassembler::load(ss);
  if (recal.empty()) return m;
  m.recalibrate(recal, rescale);
  if (mode == RecalMode::kRefit) {
    // Boundary adaptation: profiling corpus plus the fresh traces, through
    // the re-normalized pipelines.  The profiling traces anchor the fit
    // where the fresh corpus is too small to estimate class covariances.
    ProfilingData aug;
    aug.classes = profiling->classes;
    for (const sim::Trace& t : recal) aug.classes[t.meta.class_idx].push_back(t);
    m.refit_classifiers(aug);
  }
  return m;
}

MultiDeviceResult evaluate_multi_device(const MultiDeviceConfig& md,
                                        const TransferConfig& base) {
  if (md.train_devices.empty()) {
    throw std::invalid_argument("evaluate_multi_device: empty fleet");
  }
  if (std::find(md.train_devices.begin(), md.train_devices.end(),
                md.holdout_device) != md.train_devices.end()) {
    throw std::invalid_argument(
        "evaluate_multi_device: holdout device is in the training fleet");
  }
  if (base.classes.size() < 2) {
    throw std::invalid_argument("evaluate_multi_device: need >= 2 classes");
  }
  if (base.model.classifier != ml::ClassifierKind::kQda) {
    throw std::invalid_argument("evaluate_multi_device: QDA model required");
  }
  std::vector<sim::AcquisitionConfig> configs = md.configs;
  if (configs.empty()) configs.push_back(sim::AcquisitionConfig::nominal());
  for (const sim::AcquisitionConfig& c : configs) {
    if (c.samples_per_cycle != configs.front().samples_per_cycle) {
      throw std::invalid_argument(
          "evaluate_multi_device: pooled configs must share one sample grid "
          "(rate sweeps train per-rate models)");
    }
  }

  // One model recipe serves every corpus here: all configs share the grid,
  // so the CWT scale band is re-keyed once for the (possibly decimated) rate.
  HierarchicalConfig model_config = base.model;
  model_config.pipeline =
      features::configured_for(model_config.pipeline, configs.front().samples_per_cycle);

  // -- profile the fleet ------------------------------------------------------
  // The pooled corpus spreads the same per-device budget over the config
  // ladder; the single-device baselines spend their whole budget on config 0
  // of their one device, so both see traces_per_class * |configs| windows
  // per class and the comparison is budget-matched.
  const std::size_t classes = base.classes.size();
  ProfilingData pooled;
  std::vector<ProfilingData> singles_data(md.train_devices.size());
  std::vector<std::vector<double>> references(md.train_devices.size());
  const std::size_t single_budget = md.traces_per_class * configs.size();
  for (std::size_t di = 0; di < md.train_devices.size(); ++di) {
    const int device = md.train_devices[di];
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const sim::AcquisitionCampaign campaign(
          sim::DeviceModel::make(device), sim::SessionContext{}, configs[ci],
          base.leakage, base.scope);
      if (ci == 0) references[di] = campaign.reference_window();
      for (const std::size_t class_idx : base.classes) {
        std::mt19937_64 rng = stream_rng(
            base.seed, sim::hash_combine(0xAC5EE7ull, ci), device, class_idx);
        sim::TraceSet set = campaign.capture_class(
            class_idx, md.traces_per_class, base.num_programs, rng);
        sim::TraceSet& pool = pooled.classes[class_idx];
        pool.insert(pool.end(), set.begin(), set.end());
        if (ci == 0 && configs.size() > 1) {
          // Top the baseline up to the pooled per-class budget from a fresh
          // stream on its own device (salted so it never replays the pooled
          // draws).
          std::mt19937_64 extra = stream_rng(
              base.seed, sim::hash_combine(0xAC5EE7ull, 0x0Eull), device, class_idx);
          sim::TraceSet top_up = campaign.capture_class(
              class_idx, single_budget - md.traces_per_class, base.num_programs,
              extra);
          set.insert(set.end(), top_up.begin(), top_up.end());
        }
        if (ci == 0) singles_data[di].classes[class_idx] = std::move(set);
      }
    }
  }

  // -- train + calibrate ------------------------------------------------------
  HierarchicalDisassembler pooled_model =
      HierarchicalDisassembler::train(pooled, model_config);
  pooled_model.calibrate_reject(pooled);
  std::vector<double> pooled_reference(references.front().size(), 0.0);
  for (const std::vector<double>& ref : references) {
    for (std::size_t i = 0; i < pooled_reference.size(); ++i) {
      pooled_reference[i] += ref[i] / static_cast<double>(references.size());
    }
  }

  // -- zero-shot field on the held-out device --------------------------------
  const sim::DeviceModel holdout =
      md.holdout_corner ? sim::DeviceModel::make_corner(md.holdout_device)
                        : sim::DeviceModel::make(md.holdout_device);
  // Field RNG streams are keyed per class only, so every model scores the
  // same physical captures -- only the subtracted reference (each monitor's
  // own) differs.
  const auto capture_holdout = [&](const std::vector<double>& reference) {
    sim::AcquisitionCampaign field(holdout, sim::SessionContext{}, configs.front(),
                                   base.leakage, base.scope);
    field.use_reference(reference);
    std::vector<sim::TraceSet> sets;
    sets.reserve(classes);
    for (const std::size_t class_idx : base.classes) {
      std::mt19937_64 rng =
          stream_rng(base.seed, 0xF0F1Dull, md.holdout_device, class_idx);
      sets.push_back(field.capture_class(class_idx, md.test_traces_per_class,
                                         base.num_programs, rng));
    }
    return interleave(sets);
  };

  MultiDeviceResult result;
  result.holdout_device = md.holdout_device;
  for (const auto& [class_idx, set] : pooled.classes) {
    (void)class_idx;
    result.pooled_train_traces += set.size();
  }

  const sim::TraceSet pooled_field = capture_holdout(pooled_reference);
  {
    std::vector<std::uint8_t> hit(pooled_field.size(), 0);
    std::vector<std::uint8_t> verdicts(pooled_field.size(), 0);
    runtime::parallel_for(pooled_field.size(), base.eval_workers, [&](std::size_t i) {
      const Disassembly d = pooled_model.classify(pooled_field[i]);
      hit[i] = d.class_idx == pooled_field[i].meta.class_idx ? 1 : 0;
      verdicts[i] = static_cast<std::uint8_t>(d.verdict);
    });
    std::size_t correct = 0, accepted = 0, misses = 0, flagged_misses = 0;
    for (std::size_t i = 0; i < pooled_field.size(); ++i) {
      correct += hit[i];
      if (verdicts[i] != static_cast<std::uint8_t>(Verdict::kRejected)) ++accepted;
      if (!hit[i]) {
        ++misses;
        if (verdicts[i] != static_cast<std::uint8_t>(Verdict::kOk)) ++flagged_misses;
      }
    }
    const double n = static_cast<double>(pooled_field.size());
    result.pooled_accuracy = n > 0 ? static_cast<double>(correct) / n : 0.0;
    result.pooled_accepted_fraction = n > 0 ? static_cast<double>(accepted) / n : 0.0;
    result.pooled_flagged_miss_fraction =
        misses > 0 ? static_cast<double>(flagged_misses) / static_cast<double>(misses)
                   : 1.0;
  }

  result.best_single_accuracy = 0.0;
  for (std::size_t di = 0; di < md.train_devices.size(); ++di) {
    HierarchicalDisassembler model =
        HierarchicalDisassembler::train(singles_data[di], model_config);
    const sim::TraceSet field = capture_holdout(references[di]);
    SingleDeviceBaseline baseline;
    baseline.train_device = md.train_devices[di];
    baseline.accuracy = field_accuracy(model, field, base.eval_workers);
    result.best_single_accuracy =
        std::max(result.best_single_accuracy, baseline.accuracy);
    result.singles.push_back(baseline);
  }
  result.pooled_lift = result.pooled_accuracy - result.best_single_accuracy;
  return result;
}

TransferEvaluator::TransferEvaluator(int train_device, TransferConfig config)
    : config_(std::move(config)), train_device_(train_device) {
  if (config_.classes.size() < 2) {
    throw std::invalid_argument("TransferEvaluator: need >= 2 classes");
  }
  if (config_.model.classifier != ml::ClassifierKind::kQda) {
    throw std::invalid_argument(
        "TransferEvaluator: recalibration clones templates through the "
        "serializer, which requires QDA levels");
  }
  const sim::AcquisitionCampaign campaign(sim::DeviceModel::make(train_device),
                                          sim::SessionContext{}, config_.leakage,
                                          config_.scope);
  ProfilerConfig pc;
  pc.traces_per_class = config_.train_traces_per_class;
  pc.num_programs = config_.num_programs;
  pc.classes = config_.classes;
  pc.profile_registers = false;
  pc.workers = config_.eval_workers;
  std::mt19937_64 rng(sim::splitmix64(sim::hash_combine(
      config_.seed, sim::hash_combine(0x7124A1Full,
                                      static_cast<std::uint64_t>(train_device)))));
  profiling_ = profile_device(campaign, pc, rng);
  model_ = HierarchicalDisassembler::train(profiling_, config_.model);
  reference_ = campaign.reference_window();
}

TransferEvaluator::FieldData TransferEvaluator::capture_field(int test_device) const {
  sim::AcquisitionCampaign field(sim::DeviceModel::make(test_device),
                                 sim::SessionContext{}, config_.leakage,
                                 config_.scope);
  // The deployed monitor subtracts the reference it recorded while
  // profiling; the device mismatch survives subtraction as a structured
  // residual (Sec. 4's "similar shape, different offsets").
  field.use_reference(reference_);

  const std::size_t max_budget =
      config_.budgets.empty()
          ? 0
          : *std::max_element(config_.budgets.begin(), config_.budgets.end());

  std::vector<sim::TraceSet> field_sets;
  std::vector<sim::TraceSet> recal_sets;
  field_sets.reserve(config_.classes.size());
  recal_sets.reserve(config_.classes.size());
  for (const std::size_t class_idx : config_.classes) {
    std::mt19937_64 frng = stream_rng(config_.seed, 0xF1E1Dull, test_device, class_idx);
    field_sets.push_back(field.capture_class(class_idx, config_.test_traces_per_class,
                                             config_.num_programs, frng));
    if (max_budget > 0) {
      std::mt19937_64 rrng =
          stream_rng(config_.seed, 0x2ECA1ull, test_device, class_idx);
      recal_sets.push_back(
          field.capture_class(class_idx, max_budget, config_.num_programs, rrng));
    }
  }
  return {interleave(field_sets), interleave(recal_sets)};
}

sim::TraceSet TransferEvaluator::budget_slice(const sim::TraceSet& pool,
                                              std::size_t per_class) const {
  const std::size_t want = per_class * config_.classes.size();
  const std::size_t n = std::min(want, pool.size());
  return sim::TraceSet(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(n));
}

HierarchicalDisassembler TransferEvaluator::recalibrated(const sim::TraceSet& recal,
                                                         RecalMode mode) const {
  return recalibrated_copy(model_, recal, mode, config_.renorm_rescale, &profiling_);
}

double TransferEvaluator::accuracy(const HierarchicalDisassembler& model,
                                   const sim::TraceSet& field) const {
  return field_accuracy(model, field, config_.eval_workers);
}

TransferCell TransferEvaluator::evaluate(int test_device) const {
  const FieldData fd = capture_field(test_device);
  TransferCell cell;
  cell.train_device = train_device_;
  cell.test_device = test_device;
  cell.baseline_accuracy = accuracy(model_, fd.field);
  cell.curve.reserve(config_.budgets.size());
  for (const std::size_t k : config_.budgets) {
    BudgetPoint p;
    p.budget_per_class = k;
    if (k == 0) {
      p.renorm_accuracy = cell.baseline_accuracy;
      p.refit_accuracy = cell.baseline_accuracy;
    } else {
      const sim::TraceSet slice = budget_slice(fd.recal_pool, k);
      p.renorm_accuracy = accuracy(recalibrated(slice, RecalMode::kRenorm), fd.field);
      p.refit_accuracy = accuracy(recalibrated(slice, RecalMode::kRefit), fd.field);
    }
    cell.curve.push_back(p);
  }
  return cell;
}

}  // namespace sidis::core
