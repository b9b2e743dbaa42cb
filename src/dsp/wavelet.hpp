// Continuous wavelet transform (CWT) in the style the paper uses (Sec. 3):
// every power trace is mapped onto a 50-scale x 315-sample time-frequency
// grid, and all feature selection happens on that grid.
//
// The full scalogram (`transform`) has two evaluation paths sharing one
// sampled, L2-normalized kernel bank:
//
//  * a direct path -- per-scale FIR correlation, O(N * W_j) per row, which
//    wins while kernels are short;
//  * a spectral path -- one padded forward FFT of the trace, then one
//    spectral multiply + inverse FFT per *pair* of scales (two real rows
//    packed into one complex inverse transform), O(L log L) per row with
//    L = next_pow2(N + max kernel radius).
//
// Kernels are precomputed once per `Cwt` instance; their padded spectra and
// the `FftPlan` are built lazily per trace length and shared (read-only)
// across threads and across copies of the `Cwt`, so transforming thousands
// of traces amortizes all setup.  `CwtConfig::backend` selects the path;
// the default `kAuto` picks per scale by the measured crossover documented
// in DESIGN.md.
//
// Sparse extraction -- the few hundred selected points classification reads
// -- always computes each point as one direct kernel correlation
// (`coefficient`, `gather_soa`), whatever the backend.
#pragma once

#include <compare>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.hpp"
#include "linalg/matrix.hpp"

namespace sidis::dsp {

/// Mother wavelet families.  The paper cites Cohen's time-frequency text and
/// standard SCA practice; the real-valued Morlet is the default because its
/// zero mean suppresses the DC component that carries the covariate shift,
/// while Ricker ("Mexican hat") is kept for ablations.
enum class WaveletFamily {
  kMorlet,  ///< exp(-t^2/2) * cos(w0 t), w0 = 5 (admissible, ~zero mean)
  kRicker,  ///< (1 - t^2) * exp(-t^2/2)
};

/// A time-frequency map: rows = scale index j (1..n_scales, coarse->fine as
/// configured), cols = time index k (one per input sample).
using Scalogram = linalg::Matrix;

/// Evaluation strategy of the full scalogram (Cwt::transform).  Sparse
/// extraction ignores it: every sparse point is one direct correlation.
enum class CwtBackend {
  kAuto,      ///< per-scale crossover between direct and spectral (default)
  kDirect,    ///< always time-domain correlation (the reference path)
  kSpectral,  ///< always FFT, even where the direct path would win
};

/// Configuration of the scale axis.
struct CwtConfig {
  WaveletFamily family = WaveletFamily::kMorlet;
  std::size_t num_scales = 50;   ///< paper: j = 1..50
  double min_scale = 2.0;        ///< finest scale, in samples
  double max_scale = 64.0;       ///< coarsest scale, in samples
  bool log_spacing = true;       ///< geometric scale progression (octave-like)
  double kernel_radius = 4.0;    ///< kernel support = radius * scale samples
  CwtBackend backend = CwtBackend::kAuto;

  bool operator==(const CwtConfig&) const = default;
};

/// One coefficient to gather: grid point (scale index j, time index k).
/// Ordered by (j, k).
struct CwtPoint {
  std::size_t j = 0;
  std::size_t k = 0;

  auto operator<=>(const CwtPoint&) const = default;
};

/// Reusable scratch buffers for the spectral path of the full transform.  A
/// default-constructed workspace works for any transform; buffers grow on
/// first use and are then reused, so steady-state transforms are
/// allocation-free (except for the returned scalogram itself).  Not
/// thread-safe: use one per worker.
class CwtWorkspace {
 public:
  CwtWorkspace() = default;

 private:
  friend class Cwt;
  ComplexVector freq_;   ///< forward spectrum of the current padded trace
  ComplexVector work_;   ///< per-pair multiply / inverse-FFT scratch
};

/// Empty: batch sparse extraction is direct correlation and needs no
/// scratch.  Kept so the batch entry points (coefficients_soa and
/// features::FeaturePipeline::transform_soa_batch) keep their signatures.
class CwtBatchWorkspace {};

/// Ceiling on a bank's total kernel taps, sum over scales of 2*ceil(r*s)+1.
/// The default config needs about 7.4k; a corrupt archive's radius or scale
/// range must not size a multi-GB bank.
inline constexpr std::size_t kMaxKernelTaps = std::size_t{1} << 24;

/// Precomputed CWT filter bank.
class Cwt {
 public:
  /// Throws std::invalid_argument on an empty, non-finite or inverted scale
  /// range, a non-finite or non-positive kernel_radius, or a bank above
  /// kMaxKernelTaps (checked before anything is allocated).
  explicit Cwt(CwtConfig config = {});

  /// Transforms a trace into its scalogram (num_scales x trace.size()).
  /// Boundary handling: the trace is treated as zero outside its support,
  /// matching the paper's fixed 315-sample window per instruction.
  /// The workspace overload reuses the caller's scratch buffers; the
  /// convenience overload allocates its own.
  Scalogram transform(const std::vector<double>& trace) const;
  Scalogram transform(const std::vector<double>& trace, CwtWorkspace& ws) const;

  /// Single CWT coefficient at (scale index j, time index k) -- one kernel
  /// correlation, always time-domain.  The scalar definition of a sparse
  /// point: every lane of gather_soa reproduces it bit for bit.  Past the
  /// trace end a point reads the part of the kernel that still overlaps the
  /// trace (0 once none does).
  double coefficient(const std::vector<double>& trace, std::size_t j,
                     std::size_t k) const;

  /// Batch of same-length traces, addressed by pointer.
  using TraceBatch = std::span<const std::vector<double>* const>;

  /// Marshals a batch of same-length traces into the lane-contiguous SoA
  /// block soa[t * lanes + l] = traces[l][t] (write-contiguous: the lane
  /// loop is innermost, so the reads are `lanes` sequential streams and the
  /// writes one).  Returns the common trace length.  Throws
  /// std::invalid_argument on an empty batch, a null trace pointer or mixed
  /// trace lengths.
  /// Callers that run several feature pipelines over one batch marshal once
  /// through this and feed the block to gather_soa / coefficients_soa,
  /// instead of paying the marshal per pipeline.
  static std::size_t marshal(TraceBatch traces, std::vector<double>& soa);

  /// The coefficients at `points` across a pre-marshalled SoA block (`soa`
  /// holds `n * lanes` doubles, layout of marshal): out holds points.size()
  /// rows of `lanes` doubles, row i = point i, so out[i * lanes + l] is
  /// bit-identical to coefficient(trace l, points[i].j, points[i].k).  The
  /// kernel taps load once per batch instead of once per window, and every
  /// inner loop runs lane-contiguous.  Throws std::invalid_argument on a
  /// block or output of the wrong size.
  void gather_soa(std::span<const double> soa, std::size_t n, std::size_t lanes,
                  std::span<const CwtPoint> points, std::span<double> out) const;

  /// gather_soa at the points (js[i], ks[i]), as a (js.size() x lanes)
  /// matrix with *columns* as windows: entry (i, w) is bit-identical to
  /// coefficient(trace w, js[i], ks[i]).  Throws std::invalid_argument when
  /// js and ks differ in length.
  linalg::Matrix coefficients_soa(std::span<const double> soa, std::size_t n,
                                  std::size_t lanes,
                                  std::span<const std::size_t> js,
                                  std::span<const std::size_t> ks,
                                  CwtBatchWorkspace& ws) const;

  /// Scale value (in samples) for scale index j in [0, num_scales).
  double scale(std::size_t j) const { return scales_.at(j); }

  /// Pseudo-frequency (cycles/sample) associated with scale index j.  For
  /// Morlet this is w0 / (2 pi s); for Ricker the peak-response frequency.
  double pseudo_frequency(std::size_t j) const;

  const CwtConfig& config() const { return config_; }
  std::size_t num_scales() const { return scales_.size(); }

 private:
  /// Per-trace-length spectral machinery: the FFT plan plus the padded
  /// kernel spectra, packed two scales per complex spectrum (row pair =
  /// real/imaginary parts of one inverse transform).  Immutable once built.
  struct SpectralBank;
  /// Lazily grown, mutex-guarded bank list shared across copies of this Cwt
  /// (copies see the same scales/kernels, so sharing is sound).
  struct BankCache;

  const SpectralBank& bank_for(std::size_t trace_len) const;
  void direct_row(const std::vector<double>& trace, std::size_t j,
                  std::span<double> out) const;

  CwtConfig config_;
  std::vector<double> scales_;
  std::vector<std::vector<double>> kernels_;  ///< per-scale sampled wavelet
  std::shared_ptr<BankCache> banks_;
};

/// Evaluates the mother wavelet psi(t) for a family at unit scale.
double mother_wavelet(WaveletFamily family, double t);

}  // namespace sidis::dsp
