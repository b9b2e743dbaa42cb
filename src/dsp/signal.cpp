#include "dsp/signal.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sidis::dsp {

double mean(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc / static_cast<double>(x.size());
}

double variance(const std::vector<double>& x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size() - 1);
}

double stddev(const std::vector<double>& x) { return std::sqrt(variance(x)); }

std::vector<double> lowpass_single_pole(const std::vector<double>& x,
                                        double cutoff_fraction) {
  if (!(cutoff_fraction > 0.0)) {
    throw std::invalid_argument("lowpass_single_pole: cutoff must be > 0");
  }
  if (cutoff_fraction >= 0.5) return x;  // Nyquist or above: pass-through
  // Standard bilinear-free EMA design: a = 1 - exp(-2 pi fc).
  const double a = 1.0 - std::exp(-2.0 * std::numbers::pi * cutoff_fraction);
  std::vector<double> out(x.size());
  double y = x.empty() ? 0.0 : x.front();
  for (std::size_t i = 0; i < x.size(); ++i) {
    y += a * (x[i] - y);
    out[i] = y;
  }
  return out;
}

std::vector<double> quantize(const std::vector<double>& x, int bits, double lo,
                             double hi) {
  if (bits < 1 || bits > 24) throw std::invalid_argument("quantize: bits out of range");
  if (!(hi > lo)) throw std::invalid_argument("quantize: hi must exceed lo");
  const double levels = static_cast<double>((1u << bits) - 1u);
  const double step = (hi - lo) / levels;
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double c = std::clamp(x[i], lo, hi);
    out[i] = lo + std::round((c - lo) / step) * step;
  }
  return out;
}

std::vector<double> shift(const std::vector<double>& x, int lag) {
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  std::vector<double> out(x.size(), 0.0);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t j = i - lag;
    if (j >= 0 && j < n) out[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(j)];
  }
  return out;
}

}  // namespace sidis::dsp
