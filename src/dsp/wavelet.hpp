// Continuous wavelet transform (CWT) in the style the paper uses (Sec. 3):
// every power trace is mapped onto a 50-scale x 315-sample time-frequency
// grid, and all feature selection happens on that grid.
//
// Two evaluation paths share one sampled, L2-normalized kernel bank:
//
//  * a direct path -- per-scale FIR correlation, O(N * W_j) per row, which
//    wins while kernels are short and for sparse per-point extraction;
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
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
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

/// CWT evaluation strategy.
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

/// One coefficient to gather: grid point (scale index j, time index k) and
/// the route that computes it.  The two routes round differently, so a
/// point's route is part of its identity: a union of several point sets
/// keeps (j, k) once per route it is asked for.  Ordered by (j, k, route).
struct CwtPoint {
  std::size_t j = 0;
  std::size_t k = 0;
  bool spectral = false;  ///< read off the scale's packed spectral row,
                          ///< else one direct kernel correlation

  auto operator<=>(const CwtPoint&) const = default;
};

/// Reusable scratch buffers for the spectral path.  A default-constructed
/// workspace works for any transform; buffers grow on first use and are then
/// reused, so steady-state transforms are allocation-free (except for the
/// returned scalogram itself).  Not thread-safe: use one per worker.
class CwtWorkspace {
 public:
  CwtWorkspace() = default;

 private:
  friend class Cwt;
  ComplexVector freq_;   ///< forward spectrum of the current padded trace
  ComplexVector work_;   ///< per-pair multiply / inverse-FFT scratch
};

/// Scratch for the batch (struct-of-arrays) paths: the lane-contiguous trace
/// block and the batched spectra.  Grow-once like CwtWorkspace; one instance
/// serves any batch width/length sequence.  Not thread-safe: use one per
/// worker.
class CwtBatchWorkspace {
 public:
  CwtBatchWorkspace() = default;

 private:
  friend class Cwt;
  std::vector<double> soa_;   ///< traces, lane-contiguous: [sample][lane]
  std::vector<double> row_;   ///< one batched output row: [sample][lane]
  BatchComplex freq_;         ///< forward spectra of the padded batch
  BatchComplex work_;         ///< per-pair multiply / inverse scratch
};

/// Precomputed CWT filter bank.
class Cwt {
 public:
  explicit Cwt(CwtConfig config = {});

  /// Transforms a trace into its scalogram (num_scales x trace.size()).
  /// Boundary handling: the trace is treated as zero outside its support,
  /// matching the paper's fixed 315-sample window per instruction.
  /// The workspace overload reuses the caller's scratch buffers; the
  /// convenience overload allocates its own.
  Scalogram transform(const std::vector<double>& trace) const;
  Scalogram transform(const std::vector<double>& trace, CwtWorkspace& ws) const;

  /// Single CWT coefficient at (scale index j, time index k) -- one kernel
  /// correlation, always time-domain.  The classification path only needs a
  /// few hundred selected feature points, so this is the hot function at
  /// inference time.
  double coefficient(const std::vector<double>& trace, std::size_t j,
                     std::size_t k) const;

  /// Batched coefficient extraction: values of the (js[i], ks[i]) grid
  /// points, in input order (js and ks must have equal length).  Each scale
  /// takes the route sparse_routes() picks for this point set, then
  /// gather() computes the points.  With `CwtBackend::kDirect` every point
  /// stays a per-point correlation.
  linalg::Vector coefficients(const std::vector<double>& trace,
                              std::span<const std::size_t> js,
                              std::span<const std::size_t> ks,
                              CwtWorkspace& ws) const;

  /// The per-scale route sparse extraction of the point set with scale
  /// indices `js` takes on traces of `n` samples: routes[j] = 1 when scale
  /// j's points are read off its packed spectral row, 0 when each is one
  /// direct correlation.  A scale goes spectral once it holds enough points
  /// that the row costs less than its correlations (always, under
  /// kSpectral; never, under kDirect or at n = 0), and its pair partner
  /// rides along because the packed inverse transform serves both.  The
  /// route depends on the point set, so two sets sharing a point may route
  /// it differently.
  std::vector<std::uint8_t> sparse_routes(std::span<const std::size_t> js,
                                          std::size_t n) const;

  /// Computes `points` on one trace, each by its own route, into out[i]
  /// (out.size() == points.size()).  Past the trace end a spectral point
  /// reads 0 (its row spans [0, n)), a direct one the part of the kernel
  /// that still overlaps the trace.  Spectral points need a scale the
  /// spectral bank packs at this length (as sparse_routes() flags them);
  /// throws std::invalid_argument otherwise.  One forward FFT serves every
  /// spectral pair the points touch.
  void gather(const std::vector<double>& trace, std::span<const CwtPoint> points,
              std::span<double> out, CwtWorkspace& ws) const;

  /// Batch of same-length traces, addressed by pointer (struct-of-arrays
  /// marshalling happens inside, against the workspace's grow-once buffers).
  using TraceBatch = std::span<const std::vector<double>* const>;

  /// Batched full transform: scalogram i is bit-identical to
  /// transform(*traces[i]), but the whole batch moves through the spectral
  /// machinery struct-of-arrays -- one interleaved FFT pass over all lanes,
  /// one vectorized spectral multiply + inverse per packed scale pair, and
  /// lane-vectorized direct correlation for the sub-crossover scales.
  /// Throws std::invalid_argument on an empty batch or mixed trace lengths.
  std::vector<Scalogram> transform_batch(TraceBatch traces,
                                         CwtBatchWorkspace& ws) const;

  /// Marshals a batch of same-length traces into the lane-contiguous SoA
  /// block soa[t * lanes + l] = traces[l][t] (write-contiguous: the lane
  /// loop is innermost, so the reads are `lanes` sequential streams and the
  /// writes one).  Returns the common trace length.  Throws
  /// std::invalid_argument on an empty batch or mixed trace lengths.
  /// Callers that run several feature pipelines over one batch marshal once
  /// through this and feed the block to gather_soa / coefficients_soa,
  /// instead of paying the marshal per pipeline.
  static std::size_t marshal(TraceBatch traces, std::vector<double>& soa);

  /// gather() across a pre-marshalled SoA block (`soa` holds `n * lanes`
  /// doubles, layout of marshal, and is NOT aliased by the workspace's own
  /// buffers): out holds points.size() rows of `lanes` doubles, row i =
  /// point i, so out[i * lanes + l] is bit-identical to gather() on lane l.
  /// The kernel taps, packed spectra and FFT twiddles load once per batch
  /// instead of once per window, and every inner loop runs lane-contiguous.
  void gather_soa(std::span<const double> soa, std::size_t n, std::size_t lanes,
                  std::span<const CwtPoint> points, std::span<double> out,
                  CwtBatchWorkspace& ws) const;

  /// coefficients() across a pre-marshalled SoA block: the matrix is
  /// (js.size() x lanes) with *columns* as windows, and column w is
  /// bit-identical to coefficients(trace w, js, ks, ws).
  linalg::Matrix coefficients_soa(std::span<const double> soa, std::size_t n,
                                  std::size_t lanes,
                                  std::span<const std::size_t> js,
                                  std::span<const std::size_t> ks,
                                  CwtBatchWorkspace& ws) const;

  /// Scale value (in samples) for scale index j in [0, num_scales).
  double scale(std::size_t j) const { return scales_.at(j); }

  /// Kernel support width (taps) at scale index j.
  std::size_t kernel_width(std::size_t j) const { return kernels_.at(j).size(); }

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
  /// The bank serving the spectral `points` at length n, with want[p] = 1
  /// for every packed pair they read; nullptr when none is spectral (or
  /// n == 0).
  const SpectralBank* spectral_pairs(std::span<const CwtPoint> points, std::size_t n,
                                     std::vector<std::uint8_t>& want) const;
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
