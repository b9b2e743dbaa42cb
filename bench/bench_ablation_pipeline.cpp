// Ablation bench for the design choices DESIGN.md calls out.
//
// Each variant classifies the same 6 group-1 instruction classes, evaluated
// twice: on held-out traces from the profiling session (matched) and on
// traces from a gain-shifted later session (shifted).  Variants:
//
//   full            CWT + KL-DNVP selection + per-trace norm + PCA + QDA
//   no-norm         same, per-trace normalization off
//   random-points   CWT + *random* grid points instead of KL selection
//   ricker          full pipeline with the Ricker wavelet instead of Morlet
//   raw-trace       no CWT at all: PCA + QDA on the time-domain window
//   dnvp-1          KL selection with 1 point per pair instead of 5
#include "bench/common.hpp"

#include "baseline/baselines.hpp"
#include "features/selection.hpp"

using namespace sidis;

namespace {

struct Eval {
  double matched = 0.0;
  double shifted = 0.0;
};

Eval eval_pipeline(const features::PipelineConfig& cfg,
                   const features::LabeledTraces& train,
                   const features::LabeledTraces& matched,
                   const features::LabeledTraces& shifted) {
  const auto pipe = features::FeaturePipeline::fit(train, cfg);
  ml::FactoryConfig fc;
  fc.discriminant.shrinkage = 0.15;
  auto qda = ml::make_classifier(ml::ClassifierKind::kQda, fc);
  qda->fit(pipe.transform(train));
  return {qda->accuracy(pipe.transform(matched)), qda->accuracy(pipe.transform(shifted))};
}

/// Random-point variant: same CWT + scalers + PCA + QDA machinery, but the
/// grid points are drawn uniformly instead of by KL divergence.
Eval eval_random_points(const features::LabeledTraces& train,
                        const features::LabeledTraces& matched,
                        const features::LabeledTraces& shifted, std::size_t num_points,
                        std::mt19937_64& rng) {
  const dsp::Cwt cwt{dsp::CwtConfig{}};
  std::vector<stats::GridPoint> points(num_points);
  std::uniform_int_distribution<std::size_t> pj(0, cwt.num_scales() - 1);
  std::uniform_int_distribution<std::size_t> pk(0, 314);
  for (auto& p : points) p = {pj(rng), pk(rng), 0.0};

  const auto project = [&](const features::LabeledTraces& in) {
    ml::Dataset out;
    std::vector<linalg::Vector> rows;
    for (std::size_t c = 0; c < in.sets.size(); ++c) {
      for (const sim::Trace& t : *in.sets[c]) {
        linalg::Vector& f = rows.emplace_back(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
          f[i] = cwt.coefficient(t.samples, points[i].j, points[i].k);
        }
        out.y.push_back(in.labels[c]);
      }
    }
    out.x = linalg::Matrix::from_rows(rows);
    return out;
  };
  ml::Dataset train_ds = project(train);
  const auto scaler = stats::ColumnScaler::fit(train_ds.x);
  train_ds.x = scaler.transform(train_ds.x);
  const auto pca = stats::Pca::fit(train_ds.x, 20);
  train_ds.x = pca.transform(train_ds.x);
  ml::FactoryConfig fc;
  fc.discriminant.shrinkage = 0.15;
  auto qda = ml::make_classifier(ml::ClassifierKind::kQda, fc);
  qda->fit(train_ds);
  const auto score = [&](const features::LabeledTraces& in) {
    ml::Dataset d = project(in);
    d.x = pca.transform(scaler.transform(d.x));
    return qda->accuracy(d);
  };
  return {score(matched), score(shifted)};
}

}  // namespace

int main() {
  bench::print_header("Ablations -- what each pipeline ingredient buys");
  std::mt19937_64 rng(static_cast<std::uint64_t>(bench::env_int("SIDIS_SEED", 77)));

  const auto device = sim::DeviceModel::make(0);
  const sim::AcquisitionCampaign profiling(device, sim::SessionContext::make(0));
  sim::SessionContext later = sim::SessionContext::make(0);
  later.id = 3;
  later.gain = 1.25;
  const sim::AcquisitionCampaign field(device, later);

  auto g1 = avr::classes_in_group(1);
  g1.resize(bench::fast_mode() ? 4 : 6);
  const std::size_t n_train = bench::traces_per_class(200);
  const std::size_t n_test = std::max<std::size_t>(n_train / 5, 20);

  std::vector<sim::TraceSet> train_sets, matched_sets, shifted_sets;
  features::LabeledTraces train, matched, shifted;
  for (std::size_t cls : g1) {
    train_sets.push_back(profiling.capture_class(cls, n_train, 10, rng));
    matched_sets.push_back(profiling.capture_class(cls, n_test, 10, rng));
    sim::TraceSet sh;
    for (std::size_t i = 0; i < n_test; ++i) {
      sh.push_back(field.capture_trace(avr::random_instance(cls, rng),
                                       sim::ProgramContext::make(100), rng));
    }
    shifted_sets.push_back(std::move(sh));
  }
  for (std::size_t i = 0; i < g1.size(); ++i) {
    const int label = static_cast<int>(g1[i]);
    train.labels.push_back(label);
    train.sets.push_back(&train_sets[i]);
    matched.labels.push_back(label);
    matched.sets.push_back(&matched_sets[i]);
    shifted.labels.push_back(label);
    shifted.sets.push_back(&shifted_sets[i]);
  }
  std::printf("  %zu classes, %zu train traces each; shifted session: +25%% gain\n\n",
              g1.size(), n_train);
  std::printf("  %-16s %10s %10s\n", "variant", "matched", "shifted");

  const auto row = [](const char* name, const Eval& e) {
    std::printf("  %-16s %9.1f%% %9.1f%%\n", name, 100.0 * e.matched, 100.0 * e.shifted);
  };

  features::PipelineConfig full = core::csa_config();
  full.pca_components = 20;
  row("full", eval_pipeline(full, train, matched, shifted));

  features::PipelineConfig no_norm = full;
  no_norm.per_trace_normalization = false;
  row("no-norm", eval_pipeline(no_norm, train, matched, shifted));

  row("random-points", eval_random_points(train, matched, shifted, 60, rng));

  features::PipelineConfig ricker = full;
  ricker.cwt.family = dsp::WaveletFamily::kRicker;
  row("ricker", eval_pipeline(ricker, train, matched, shifted));

  {
    baseline::BaselineConfig bc;
    bc.pca_components = 20;
    const auto raw = baseline::train_eisenbarth(train, bc);
    Eval e;
    e.matched = raw.accuracy(matched);
    e.shifted = raw.accuracy(shifted);
    row("raw-trace", e);
  }

  features::PipelineConfig dnvp1 = full;
  dnvp1.points_per_pair = 1;
  row("dnvp-1", eval_pipeline(dnvp1, train, matched, shifted));

  std::printf("\n  reading guide: 'full' should lead under shift; random points and\n"
              "  raw traces give up either matched accuracy, shift robustness, or both.\n");
  return 0;
}
