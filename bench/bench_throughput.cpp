// Classifier-throughput microbenchmarks (google-benchmark).
//
// Sec. 5.4 argues the variable count gates real-time disassembly: a 1 GHz
// 4-wide core leaves ~0.25 ns per instruction, and every feature point costs
// one kernel correlation at classification time.  These benchmarks measure
// the actual per-trace latency of each pipeline stage and classifier, plus
// the sparse-vs-full CWT ablation that justifies per-point extraction.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/csa.hpp"
#include "features/pipeline.hpp"
#include "linalg/decompositions.hpp"
#include "ml/factory.hpp"
#include "sim/acquisition.hpp"

using namespace sidis;

namespace {

struct Fixture {
  features::FeaturePipeline pipeline;
  std::unique_ptr<ml::Classifier> qda;
  std::unique_ptr<ml::Classifier> lda;
  std::unique_ptr<ml::Classifier> svm;
  std::unique_ptr<ml::Classifier> nb;
  sim::TraceSet probes;
  dsp::Cwt cwt{dsp::CwtConfig{}};

  static const Fixture& instance() {
    static const Fixture f = [] {
      Fixture fx;
      std::mt19937_64 rng(99);
      const sim::AcquisitionCampaign campaign(sim::DeviceModel::make(0),
                                              sim::SessionContext::make(0));
      const auto g1 = avr::classes_in_group(1);
      std::vector<sim::TraceSet> sets;
      features::LabeledTraces input;
      for (std::size_t i = 0; i < 6; ++i) {
        sets.push_back(campaign.capture_class(g1[i], 80, 10, rng));
      }
      for (std::size_t i = 0; i < sets.size(); ++i) {
        input.labels.push_back(static_cast<int>(g1[i]));
        input.sets.push_back(&sets[i]);
      }
      features::PipelineConfig cfg = core::csa_config();
      cfg.pca_components = 40;
      fx.pipeline = features::FeaturePipeline::fit(input, cfg);
      const ml::Dataset train = fx.pipeline.transform(input);
      ml::FactoryConfig fc;
      fc.discriminant.shrinkage = 0.15;
      fx.qda = ml::make_classifier(ml::ClassifierKind::kQda, fc);
      fx.lda = ml::make_classifier(ml::ClassifierKind::kLda, fc);
      fx.svm = ml::make_classifier(ml::ClassifierKind::kSvmRbf, fc);
      fx.nb = ml::make_classifier(ml::ClassifierKind::kNaiveBayes, fc);
      fx.qda->fit(train);
      fx.lda->fit(train);
      fx.svm->fit(train);
      fx.nb->fit(train);
      fx.probes = sets.front();
      return fx;
    }();
    return f;
  }
};

void BM_CwtFullGrid(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  dsp::CwtWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.cwt.transform(fx.probes[i++ % fx.probes.size()].samples, ws));
  }
}
BENCHMARK(BM_CwtFullGrid);

// Backend ablation over (trace length, scale count): the forced-direct case
// is the pre-spectral baseline the EXPERIMENTS.md speedup table compares
// against.  (315, 50) is the paper's default grid.
template <dsp::CwtBackend Backend>
void BM_CwtBackend(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  dsp::CwtConfig cfg;
  cfg.backend = Backend;
  cfg.num_scales = static_cast<std::size_t>(state.range(1));
  const dsp::Cwt cwt(cfg);
  dsp::CwtWorkspace ws;
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<double> trace(fx.probes.front().samples);
  trace.resize(len, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cwt.transform(trace, ws));
  }
}
#define CWT_BACKEND_ARGS       \
  Args({100, 50})              \
      ->Args({315, 50})        \
      ->Args({1000, 50})       \
      ->Args({315, 10})        \
      ->Args({315, 100})
BENCHMARK(BM_CwtBackend<dsp::CwtBackend::kDirect>)->Name("BM_CwtDirect")->CWT_BACKEND_ARGS;
BENCHMARK(BM_CwtBackend<dsp::CwtBackend::kSpectral>)->Name("BM_CwtSpectral")->CWT_BACKEND_ARGS;
BENCHMARK(BM_CwtBackend<dsp::CwtBackend::kAuto>)->Name("BM_CwtAuto")->CWT_BACKEND_ARGS;
#undef CWT_BACKEND_ARGS

void BM_FeatureExtractionSparse(benchmark::State& state) {  // a one-lane gather
  const Fixture& fx = Fixture::instance();
  std::vector<dsp::CwtPoint> points;
  for (const stats::GridPoint& p : fx.pipeline.unified_points()) points.push_back({p.j, p.k});
  std::vector<double> out(points.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const std::vector<double>& w = fx.probes[i++ % fx.probes.size()].samples;
    fx.cwt.gather_soa(w, w.size(), 1, points, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeatureExtractionSparse);

void BM_PipelineTransform(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.pipeline.transform(fx.probes[i++ % fx.probes.size()]));
  }
}
BENCHMARK(BM_PipelineTransform);

template <const std::unique_ptr<ml::Classifier> Fixture::* Member>
void BM_Classify(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  const linalg::Vector z = fx.pipeline.transform(fx.probes.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize((fx.*Member)->predict(z));
  }
}
BENCHMARK(BM_Classify<&Fixture::qda>)->Name("BM_ClassifyQda");
BENCHMARK(BM_Classify<&Fixture::lda>)->Name("BM_ClassifyLda");
BENCHMARK(BM_Classify<&Fixture::svm>)->Name("BM_ClassifySvmRbf");
BENCHMARK(BM_Classify<&Fixture::nb>)->Name("BM_ClassifyNaiveBayes");

void BM_EndToEndClassifyTrace(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    const sim::Trace& t = fx.probes[i++ % fx.probes.size()];
    benchmark::DoNotOptimize(fx.qda->predict(fx.pipeline.transform(t)));
  }
}
BENCHMARK(BM_EndToEndClassifyTrace);

// One lane through each struct-of-arrays kernel against its scalar twin.
// classify() runs the SoA kernels on a batch of one, so each OneLane case
// should cost about what its Scalar twin does.  Read them pinned, as the
// minimum over repetitions: `taskset -c 2 bench_throughput
// --benchmark_filter=Lane --benchmark_repetitions=9
// --benchmark_enable_random_interleaving=true
// --benchmark_report_aggregates_only=true`, then compare the `_min` rows.
double min_of(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

linalg::Cholesky random_cholesky(std::size_t n) {
  std::mt19937_64 rng(n);
  std::normal_distribution<double> dist;
  linalg::Matrix b(n, n), a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = dist(rng);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = i == j ? static_cast<double>(n) : 0.0;
      for (std::size_t k = 0; k < n; ++k) s += b(i, k) * b(j, k);
      a(i, j) = s;
    }
  }
  return linalg::Cholesky::compute(a);
}

void BM_MahalanobisScalarLane(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Cholesky chol = random_cholesky(n);
  const linalg::Vector x(n, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(chol.mahalanobis_squared(x));
}
void BM_MahalanobisOneLane(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Cholesky chol = random_cholesky(n);
  const linalg::Matrix x(n, 1, 0.5);
  linalg::Matrix y(n, 1);
  double out = 0.0;
  for (auto _ : state) {
    chol.mahalanobis_squared_batch(x, {&out, 1}, y);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MahalanobisScalarLane)->Arg(20)->Arg(40)->Arg(50)->ComputeStatistics("min", min_of);
BENCHMARK(BM_MahalanobisOneLane)->Arg(20)->Arg(40)->Arg(50)->ComputeStatistics("min", min_of);

// The fixture pipeline's points, and their coefficients on the first probe.
struct FixtureGather {
  std::vector<dsp::CwtPoint> points;
  std::vector<double> g;
  std::vector<std::size_t> rows;

  FixtureGather() {
    const Fixture& fx = Fixture::instance();
    for (const stats::GridPoint& p : fx.pipeline.unified_points()) points.push_back({p.j, p.k});
    for (const dsp::CwtPoint& p : points) {
      g.push_back(fx.cwt.coefficient(fx.probes.front().samples, p.j, p.k));
    }
    rows.resize(points.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
  }
};

void BM_GatherScalarLane(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  const std::vector<dsp::CwtPoint> points = FixtureGather().points;
  const std::vector<double>& w = fx.probes.front().samples;
  std::vector<double> out(points.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      out[i] = fx.cwt.coefficient(w, points[i].j, points[i].k);
    }
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_GatherOneLane(benchmark::State& state) {  // the marshal included
  const Fixture& fx = Fixture::instance();
  const std::vector<dsp::CwtPoint> points = FixtureGather().points;
  const std::vector<double>* w = &fx.probes.front().samples;
  std::vector<double> soa, out(points.size());
  for (auto _ : state) {
    const std::size_t n = dsp::Cwt::marshal({&w, 1}, soa);
    fx.cwt.gather_soa(soa, n, 1, points, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GatherScalarLane)->ComputeStatistics("min", min_of);
BENCHMARK(BM_GatherOneLane)->ComputeStatistics("min", min_of);

void BM_ProjectScalarLane(benchmark::State& state) {  // ColumnScaler, then Pca
  const FixtureGather fg;
  const features::FeaturePipeline& pipeline = Fixture::instance().pipeline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.pca().transform(pipeline.scaler().transform(fg.g)));
  }
}
void BM_ProjectOneLane(benchmark::State& state) {
  const FixtureGather fg;
  const features::FeaturePipeline& pipeline = Fixture::instance().pipeline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.project_soa(fg.g.data(), 1, fg.rows, {}, SIZE_MAX));
  }
}
BENCHMARK(BM_ProjectScalarLane)->ComputeStatistics("min", min_of);
BENCHMARK(BM_ProjectOneLane)->ComputeStatistics("min", min_of);

void BM_QdaScoredScalarLane(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  const linalg::Vector z = fx.pipeline.transform(fx.probes.front());
  for (auto _ : state) benchmark::DoNotOptimize(fx.qda->predict_scored(z));
}
void BM_QdaScoredOneLane(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  const linalg::Vector z = fx.pipeline.transform(fx.probes.front());
  linalg::Matrix x(z.size(), 1);
  for (std::size_t c = 0; c < z.size(); ++c) x(c, 0) = z[c];
  for (auto _ : state) benchmark::DoNotOptimize(fx.qda->predict_scored_batch(x));
}
BENCHMARK(BM_QdaScoredScalarLane)->ComputeStatistics("min", min_of);
BENCHMARK(BM_QdaScoredOneLane)->ComputeStatistics("min", min_of);

}  // namespace

#ifndef SIDIS_BUILD_TYPE
#define SIDIS_BUILD_TYPE "unknown"
#endif

// Expanded BENCHMARK_MAIN so the JSON context carries OUR build type: the
// system-packaged libbenchmark stamps `build_type` with how IT was compiled,
// which says nothing about the optimization level of this binary.
// A recorded BENCH_cwt.json thus says which build produced it.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("sidis_build_type", SIDIS_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
