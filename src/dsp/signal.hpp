// Scalar signal-processing helpers shared by the acquisition simulator and
// the feature pipeline: sample moments, the scope's bandwidth filter and ADC
// quantizer, and the trigger-jitter shift.
#pragma once

#include <cstddef>
#include <vector>

namespace sidis::dsp {

/// Arithmetic mean; 0 for an empty signal.
double mean(const std::vector<double>& x);

/// Unbiased sample variance (denominator n-1); 0 when n < 2.
double variance(const std::vector<double>& x);

/// sqrt(variance).
double stddev(const std::vector<double>& x);

/// Single-pole IIR low-pass, y[n] = a*x[n] + (1-a)*y[n-1], with the smoothing
/// factor derived from a -3 dB cutoff expressed as a fraction of the sample
/// rate.  Models the scope's analog bandwidth limit.
std::vector<double> lowpass_single_pole(const std::vector<double>& x,
                                        double cutoff_fraction);

/// Uniform mid-rise quantizer with 2^bits levels over [lo, hi]; values are
/// clamped into range first.  Models the scope ADC.
std::vector<double> quantize(const std::vector<double>& x, int bits, double lo,
                             double hi);

/// Shifts x by `lag` samples (positive = delay), zero-filling the gap.
std::vector<double> shift(const std::vector<double>& x, int lag);

}  // namespace sidis::dsp
