// Quickstart: profile two instruction classes on the training device, fit
// the CWT -> KL -> PCA pipeline, train a QDA template, and recognize unseen
// traces -- the minimal end-to-end tour of the public API.
#include <cstdio>
#include <random>

#include "avr/grouping.hpp"
#include "core/csa.hpp"
#include "features/pipeline.hpp"
#include "ml/factory.hpp"
#include "sim/acquisition.hpp"

using namespace sidis;

int main() {
  std::mt19937_64 rng(42);

  // 1. The "lab bench": training device (id 0), profiling session (id 0).
  const sim::AcquisitionCampaign campaign(sim::DeviceModel::make(0),
                                          sim::SessionContext::make(0));

  // 2. Profile two classes the paper uses throughout Sec. 4/5: ADC and AND.
  const std::size_t adc = *avr::class_index(avr::Mnemonic::kAdc);
  const std::size_t and_ = *avr::class_index(avr::Mnemonic::kAnd);
  const int kPrograms = 10;
  const std::size_t kTraces = 200;
  std::printf("capturing %zu traces per class over %d program files...\n", kTraces,
              kPrograms);
  const sim::TraceSet adc_traces = campaign.capture_class(adc, kTraces, kPrograms, rng);
  const sim::TraceSet and_traces = campaign.capture_class(and_, kTraces, kPrograms, rng);

  // 3. Split: programs 0..7 train, programs 8..9 test (unseen contexts).
  const auto split = [](const sim::TraceSet& in, sim::TraceSet& train, sim::TraceSet& test) {
    for (const sim::Trace& t : in) (t.meta.program_id < 8 ? train : test).push_back(t);
  };
  sim::TraceSet adc_train, adc_test, and_train, and_test;
  split(adc_traces, adc_train, adc_test);
  split(and_traces, and_train, and_test);

  // 4. Fit the feature pipeline (full covariate-shift adaptation settings)
  //    and train QDA on the reduced features.
  features::LabeledTraces train_input{{0, 1}, {&adc_train, &and_train}};
  features::PipelineConfig cfg = core::csa_config();
  cfg.pca_components = 20;
  const auto pipeline = features::FeaturePipeline::fit(train_input, cfg);
  std::printf("selected %zu feature points out of %zu grid points (%.1f%% reduction)\n",
              pipeline.unified_points().size(), pipeline.grid_size(),
              100.0 * (1.0 - static_cast<double>(pipeline.unified_points().size()) /
                                 static_cast<double>(pipeline.grid_size())));

  const ml::Dataset train = pipeline.transform(train_input);
  auto qda = ml::make_classifier(ml::ClassifierKind::kQda);
  qda->fit(train);

  // 5. Recognize traces from the held-out program files.
  features::LabeledTraces test_input{{0, 1}, {&adc_test, &and_test}};
  const ml::Dataset test = pipeline.transform(test_input);
  std::printf("train SR: %.2f%%\n", 100.0 * qda->accuracy(train));
  std::printf("test  SR: %.2f%% (%zu unseen traces)\n", 100.0 * qda->accuracy(test),
              test.size());

  // 6. Single-trace classification, the real-time monitoring primitive.
  const int predicted = qda->predict(pipeline.transform(adc_test.front()));
  std::printf("single unseen ADC trace classified as: %s\n",
              predicted == 0 ? "ADC" : "AND");
  return 0;
}
