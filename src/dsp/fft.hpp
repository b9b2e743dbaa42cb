// Minimal FFT machinery.
//
// Used for spectral diagnostics of the simulated scope front-end, for fast
// convolution, and as the engine behind the spectral path of the full
// CWT scalogram in wavelet.hpp.  Radix-2 iterative
// Cooley-Tukey; callers zero-pad to a power of two with `next_pow2`.
//
// Hot paths should hold an `FftPlan`: it caches the bit-reversal permutation
// and per-stage twiddle tables once per size, so repeated transforms do no
// trig and no allocation.  The free `fft`/`ifft` functions route through a
// thread-local plan cache and keep their historical signatures.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sidis::dsp {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

/// Smallest power of two >= n (n = 0 maps to 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed radix-2 FFT plan for one power-of-two size: bit-reversal
/// permutation plus stage-concatenated twiddle tables.  Construction is the
/// only place that touches libm; `forward`/`inverse` are allocation-free and
/// run in-place on caller-provided buffers.  A plan is immutable after
/// construction, so one instance may serve any number of threads.
class FftPlan {
 public:
  /// Throws std::invalid_argument unless `n` is a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT; `x.size()` must equal `size()`.
  void forward(ComplexVector& x) const;

  /// In-place inverse DFT (includes the 1/N scaling).
  void inverse(ComplexVector& x) const;

  /// Thread-local plan cache keyed by size; the returned reference stays
  /// valid for the lifetime of the calling thread.
  static const FftPlan& shared(std::size_t n);

 private:
  void run(ComplexVector& x, bool inverse) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> bitrev_;  ///< permutation, identity-skipping pairs
  ComplexVector twiddle_;              ///< forward twiddles, n-1 entries
};

/// In-place forward FFT; `x.size()` must be a power of two.
void fft(ComplexVector& x);

/// In-place inverse FFT (includes the 1/N scaling).
void ifft(ComplexVector& x);

/// Forward FFT of a real signal, zero-padded to the next power of two.
ComplexVector rfft(const std::vector<double>& x);

/// Magnitude spectrum |rfft(x)| truncated to the first N/2+1 bins.
std::vector<double> magnitude_spectrum(const std::vector<double>& x);

/// Linear convolution of two real signals via FFT; result length is
/// a.size() + b.size() - 1.  Falls back to direct convolution for tiny
/// inputs where FFT overhead dominates.
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b);

}  // namespace sidis::dsp
