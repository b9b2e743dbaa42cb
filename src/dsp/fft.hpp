// Minimal FFT machinery: the engine behind the spectral path of the full CWT
// scalogram in wavelet.hpp.  Radix-2 iterative Cooley-Tukey; callers
// zero-pad to a power of two with `next_pow2`.
//
// An `FftPlan` caches the bit-reversal permutation and per-stage twiddle
// tables once per size, so repeated transforms do no trig and no allocation.
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

 private:
  void run(ComplexVector& x, bool inverse) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> bitrev_;  ///< permutation, identity-skipping pairs
  ComplexVector twiddle_;              ///< forward twiddles, n-1 entries
};

}  // namespace sidis::dsp
