#include "runtime/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace sidis::runtime {

namespace {

/// Renders nanoseconds with an adaptive unit ("742ns", "1.8us", "3.1ms").
std::string human_nanos(double nanos) {
  char buf[32];
  if (nanos < 1e3) {
    std::snprintf(buf, sizeof buf, "%.0fns", nanos);
  } else if (nanos < 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fus", nanos / 1e3);
  } else if (nanos < 1e9) {
    std::snprintf(buf, sizeof buf, "%.1fms", nanos / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", nanos / 1e9);
  }
  return buf;
}

}  // namespace

std::uint64_t LatencyHistogram::quantile_upper_nanos(double q) const {
  if (count_ == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > target) return std::uint64_t{2} << b;  // bucket upper bound
  }
  return max_nanos_;
}

std::string LatencyHistogram::summary() const {
  if (count_ == 0) return "n=0";
  std::string out = "n=" + std::to_string(count_);
  out += " mean=" + human_nanos(mean_nanos());
  out += " p50<" + human_nanos(static_cast<double>(quantile_upper_nanos(0.50)));
  out += " p99<" + human_nanos(static_cast<double>(quantile_upper_nanos(0.99)));
  out += " max=" + human_nanos(static_cast<double>(max_nanos_));
  return out;
}

std::string LatencyHistogram::summary_counts() const {
  if (count_ == 0) return "n=0";
  char buf[32];
  std::string out = "n=" + std::to_string(count_);
  std::snprintf(buf, sizeof buf, " mean=%.1f", mean_nanos());
  out += buf;
  out += " p50<" + std::to_string(quantile_upper_nanos(0.50));
  out += " p99<" + std::to_string(quantile_upper_nanos(0.99));
  out += " max=" + std::to_string(max_nanos_);
  return out;
}

void RuntimeStats::merge(const RuntimeStats& other) {
  traces_submitted += other.traces_submitted;
  traces_completed += other.traces_completed;
  traces_emitted += other.traces_emitted;
  traces_failed += other.traces_failed;
  traces_rejected += other.traces_rejected;
  traces_degraded += other.traces_degraded;
  traces_faulted += other.traces_faulted;
  fault_severity_sum += other.fault_severity_sum;
  max_fault_severity = std::max(max_fault_severity, other.max_fault_severity);
  model_swaps += other.model_swaps;
  batches_submitted += other.batches_submitted;
  windows_per_batch.merge(other.windows_per_batch);
  batch_classify_nanos += other.batch_classify_nanos;
  scalar_classify_nanos += other.scalar_classify_nanos;
  batch_classified_windows += other.batch_classified_windows;
  scalar_classified_windows += other.scalar_classified_windows;
  windows_decoded += other.windows_decoded;
  windows_smoothed += other.windows_smoothed;
  monitor_folds += other.monitor_folds;
  monitor_retransforms += other.monitor_retransforms;
  windows_shed += other.windows_shed;
  windows_rejected += other.windows_rejected;
  queue_depth_high_water = std::max(queue_depth_high_water, other.queue_depth_high_water);
  in_flight_high_water = std::max(in_flight_high_water, other.in_flight_high_water);
  workers += other.workers;
  queue_wait.merge(other.queue_wait);
  classify.merge(other.classify);
  end_to_end.merge(other.end_to_end);
}

std::string RuntimeStats::report() const {
  std::string out;
  out += "runtime: workers=" + std::to_string(workers);
  out += " submitted=" + std::to_string(traces_submitted);
  out += " completed=" + std::to_string(traces_completed);
  out += " emitted=" + std::to_string(traces_emitted);
  if (traces_failed != 0) out += " FAILED=" + std::to_string(traces_failed);
  out += "\n";
  if (traces_rejected != 0 || traces_degraded != 0) {
    out += "  verdicts: rejected=" + std::to_string(traces_rejected) +
           ", degraded=" + std::to_string(traces_degraded) + "\n";
  }
  if (traces_faulted != 0) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "  faulted: %llu windows, mean severity %.2f, max %.2f\n",
                  static_cast<unsigned long long>(traces_faulted),
                  fault_severity_sum / static_cast<double>(traces_faulted),
                  max_fault_severity);
    out += buf;
  }
  if (batches_submitted != 0) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "  batches: %llu carrying %llu windows (%.1f/batch)\n",
                  static_cast<unsigned long long>(batches_submitted),
                  static_cast<unsigned long long>(traces_submitted),
                  static_cast<double>(traces_submitted) /
                      static_cast<double>(batches_submitted));
    out += buf;
  }
  if (batch_classified_windows != 0 || scalar_classified_windows != 0) {
    char buf[192];
    const auto per_window = [](std::uint64_t nanos, std::uint64_t windows) {
      return windows == 0 ? std::string("-")
                          : human_nanos(static_cast<double>(nanos) /
                                        static_cast<double>(windows));
    };
    std::snprintf(buf, sizeof buf,
                  "  classify split: batch %llu windows @ %s/win, "
                  "scalar %llu windows @ %s/win (%.1f%% of windows)\n",
                  static_cast<unsigned long long>(batch_classified_windows),
                  per_window(batch_classify_nanos, batch_classified_windows).c_str(),
                  static_cast<unsigned long long>(scalar_classified_windows),
                  per_window(scalar_classify_nanos, scalar_classified_windows).c_str(),
                  100.0 * static_cast<double>(scalar_classified_windows) /
                      static_cast<double>(batch_classified_windows +
                                          scalar_classified_windows));
    out += buf;
    out += "  windows/batched pass: " + windows_per_batch.summary_counts() + "\n";
  }
  if (windows_decoded != 0) {
    out += "  sequence decode: " + std::to_string(windows_decoded) +
           " windows, smoothed=" + std::to_string(windows_smoothed) + "\n";
  }
  if (monitor_folds != 0 || monitor_retransforms != 0) {
    out += "  drift monitor: monitor_folds=" + std::to_string(monitor_folds) +
           " monitor_retransforms=" + std::to_string(monitor_retransforms) + "\n";
  }
  if (windows_shed != 0 || windows_rejected != 0) {
    out += "  admission: shed=" + std::to_string(windows_shed) +
           ", rejected=" + std::to_string(windows_rejected) + "\n";
  }
  if (model_swaps != 0) {
    out += "  model swaps: " + std::to_string(model_swaps) + "\n";
  }
  out += "  queue high-water: " + std::to_string(queue_depth_high_water) +
         ", in-flight high-water: " + std::to_string(in_flight_high_water) + "\n";
  out += "  queue wait:  " + queue_wait.summary() + "\n";
  out += "  classify:    " + classify.summary() + "\n";
  out += "  end-to-end:  " + end_to_end.summary() + "\n";
  return out;
}

}  // namespace sidis::runtime
