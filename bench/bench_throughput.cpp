// Classifier-throughput microbenchmarks (google-benchmark).
//
// Sec. 5.4 argues the variable count gates real-time disassembly: a 1 GHz
// 4-wide core leaves ~0.25 ns per instruction, and every feature point costs
// one kernel correlation at classification time.  These benchmarks measure
// the actual per-trace latency of each pipeline stage and classifier, plus
// the sparse-vs-full CWT ablation that justifies per-point extraction.
#include <benchmark/benchmark.h>

#include <random>

#include "core/csa.hpp"
#include "features/pipeline.hpp"
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

void BM_FeatureExtractionSparse(benchmark::State& state) {
  const Fixture& fx = Fixture::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_features(
        fx.cwt, fx.probes[i++ % fx.probes.size()].samples, fx.pipeline.unified_points()));
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
