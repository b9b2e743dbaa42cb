#include "dsp/wavelet.hpp"

#include "linalg/lanes.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace sidis::dsp {

namespace {
constexpr double kMorletOmega0 = 5.0;

/// Measured direct-vs-spectral crossover (see DESIGN.md): a direct row costs
/// N*W multiply-adds, a spectral row one padded multiply plus (half of, rows
/// are packed in pairs) one inverse FFT, ~ L*log2(L) butterfly units.  The
/// constant absorbs the relative cost of a butterfly vs a MAC on this
/// substrate; calibrated with bench_throughput's BM_CwtFullGrid* cases.
constexpr double kSpectralCrossover = 1.5;

double log2d(std::size_t n) { return std::log2(static_cast<double>(n)); }

/// out[f] = a[f] * b[f] on the raw interleaved-double views: std::complex
/// loads/stores and operator* (Annex-G fixups) are an order of magnitude
/// slower here -- see FftPlan::run.  The real part adds ai * (-bi) for the
/// same reason FftPlan::run does: no add/sub pair for the compiler to fuse.
void multiply_spectra(const ComplexVector& a, const ComplexVector& b,
                      ComplexVector& out) {
  const std::size_t n = a.size();
  const double* ad = reinterpret_cast<const double*>(a.data());
  const double* bd = reinterpret_cast<const double*>(b.data());
  double* od = reinterpret_cast<double*>(out.data());
  for (std::size_t f = 0; f < 2 * n; f += 2) {
    const double ar = ad[f], ai = ad[f + 1];
    const double br = bd[f], bi = bd[f + 1], nbi = -bi;
    od[f] = ar * br + ai * nbi;
    od[f + 1] = ar * bi + ai * br;
  }
}

/// One point's taps inside the window: its kernel slice and the first SoA
/// row that slice meets.  A kernel that misses the window has no taps
/// (Taps{}).  No member initializers: gather_soa's block of them is filled
/// before it is read, and zeroing it would cost every call.
struct Taps {
  const double* kern;
  const double* x;
  std::size_t count;
};

/// Correlates R points on the tile of lanes [l0, l0 + T::kLanes): over the
/// taps all R share side by side, then each point's remaining taps alone.
/// Every lane's sum runs in scalar tap order.
template <class T, std::size_t R>
void correlate(const Taps* p, std::size_t lanes, std::size_t l0, double* dst) {
  T acc[R];
  std::size_t common = p[0].count;
  for (std::size_t r = 1; r < R; ++r) common = std::min(common, p[r].count);
  for (std::size_t d = 0; d < common; ++d) {
    linalg::unrolled<R>(
        [&](std::size_t r) { acc[r].mul_add(p[r].kern[d], p[r].x + d * lanes + l0); });
  }
  linalg::unrolled<R>([&](std::size_t r) {
    for (std::size_t d = common; d < p[r].count; ++d) {
      acc[r].mul_add(p[r].kern[d], p[r].x + d * lanes + l0);
    }
    acc[r].store(dst + r * lanes + l0);
  });
}
}  // namespace

double mother_wavelet(WaveletFamily family, double t) {
  switch (family) {
    case WaveletFamily::kMorlet: {
      // Real Morlet with the small admissibility correction term dropped
      // (negligible at w0 = 5) -- standard SCA practice.
      return std::exp(-0.5 * t * t) * std::cos(kMorletOmega0 * t);
    }
    case WaveletFamily::kRicker: {
      const double t2 = t * t;
      return (1.0 - t2) * std::exp(-0.5 * t2);
    }
  }
  throw std::invalid_argument("mother_wavelet: unknown family");
}

/// One packed spectral row pair: spec = FFT(pad(k_a) + i * pad(k_b)), so the
/// inverse transform of spec * FFT(trace) carries scale_a's correlation row
/// in its real part and scale_b's in its imaginary part.
struct PackedPair {
  std::size_t scale_a = 0;
  std::size_t scale_b = 0;     ///< == scale_a when the pair is a solo leftover
  bool has_b = false;
  ComplexVector spec;
};

struct Cwt::SpectralBank {
  std::size_t trace_len = 0;
  std::size_t fft_size = 0;
  FftPlan plan{1};
  std::vector<PackedPair> pairs;
  /// Per scale: index into `pairs` (SIZE_MAX = direct scale).
  std::vector<std::size_t> pair_index;
  bool any_spectral = false;
};

struct Cwt::BankCache {
  std::mutex mutex;
  std::vector<std::shared_ptr<const SpectralBank>> banks;  ///< keyed by trace_len
};

Cwt::Cwt(CwtConfig config) : config_(config), banks_(std::make_shared<BankCache>()) {
  if (config_.num_scales == 0) throw std::invalid_argument("Cwt: num_scales must be > 0");
  if (config_.num_scales > kMaxKernelTaps) {
    throw std::invalid_argument("Cwt: num_scales exceeds the kernel tap ceiling");
  }
  if (!std::isfinite(config_.min_scale) || !std::isfinite(config_.max_scale) ||
      !(config_.min_scale > 0.0) || config_.max_scale < config_.min_scale) {
    throw std::invalid_argument("Cwt: invalid scale range");
  }
  if (!std::isfinite(config_.kernel_radius) || !(config_.kernel_radius > 0.0)) {
    throw std::invalid_argument("Cwt: kernel_radius must be finite and > 0");
  }
  // The scale progression, run once to size the bank before anything is
  // allocated and once to record it.
  const auto each_scale = [&](auto&& f) {
    if (config_.num_scales == 1) {
      f(std::size_t{0}, config_.min_scale);
    } else if (config_.log_spacing) {
      const double ratio = std::pow(config_.max_scale / config_.min_scale,
                                    1.0 / static_cast<double>(config_.num_scales - 1));
      double s = config_.min_scale;
      for (std::size_t j = 0; j < config_.num_scales; ++j) {
        f(j, s);
        s *= ratio;
      }
    } else {
      const double step = (config_.max_scale - config_.min_scale) /
                          static_cast<double>(config_.num_scales - 1);
      for (std::size_t j = 0; j < config_.num_scales; ++j) {
        f(j, config_.min_scale + step * static_cast<double>(j));
      }
    }
  };
  double taps = 0.0;
  each_scale([&](std::size_t, double s) {
    taps += 2.0 * std::ceil(config_.kernel_radius * s) + 1.0;
  });
  if (!(taps <= static_cast<double>(kMaxKernelTaps))) {
    throw std::invalid_argument("Cwt: kernel bank exceeds the kernel tap ceiling");
  }
  scales_.resize(config_.num_scales);
  each_scale([&](std::size_t j, double s) { scales_[j] = s; });

  kernels_.resize(scales_.size());
  for (std::size_t j = 0; j < scales_.size(); ++j) {
    const double s = scales_[j];
    const auto radius =
        static_cast<std::ptrdiff_t>(std::ceil(config_.kernel_radius * s));
    std::vector<double>& k = kernels_[j];
    k.resize(static_cast<std::size_t>(2 * radius + 1));
    double energy = 0.0;
    for (std::ptrdiff_t n = -radius; n <= radius; ++n) {
      const double v = mother_wavelet(config_.family, static_cast<double>(n) / s);
      k[static_cast<std::size_t>(n + radius)] = v;
      energy += v * v;
    }
    // L2 normalization keeps coefficient magnitudes comparable across scales
    // (the 1/sqrt(s) convention folded into the sampled kernel).
    const double inv = energy > 0.0 ? 1.0 / std::sqrt(energy) : 0.0;
    for (double& v : k) v *= inv;
  }
}

const Cwt::SpectralBank& Cwt::bank_for(std::size_t trace_len) const {
  std::lock_guard lock(banks_->mutex);
  for (const auto& b : banks_->banks) {
    if (b->trace_len == trace_len) return *b;
  }

  auto bank = std::make_shared<SpectralBank>();
  bank->trace_len = trace_len;
  std::size_t max_radius = 0;
  for (const auto& k : kernels_) max_radius = std::max(max_radius, k.size() / 2);
  // L >= trace_len + max_radius keeps the circular convolution free of
  // wraparound inside the emitted [0, trace_len) window.
  bank->fft_size = next_pow2(trace_len + max_radius);
  const std::size_t L = bank->fft_size;
  bank->plan = FftPlan(L);
  bank->pair_index.assign(scales_.size(), SIZE_MAX);

  std::vector<std::size_t> spectral_scales;
  for (std::size_t j = 0; j < scales_.size(); ++j) {
    const bool spectral =
        config_.backend == CwtBackend::kSpectral ||
        (config_.backend == CwtBackend::kAuto &&
         static_cast<double>(trace_len) * static_cast<double>(kernels_[j].size()) >
             kSpectralCrossover * static_cast<double>(L) * log2d(L));
    if (spectral) spectral_scales.push_back(j);
  }
  bank->any_spectral = !spectral_scales.empty();

  // The padded kernel is stored time-reversed -- circular convolution with
  // the reversed kernel is exactly the correlation the direct path computes.
  const auto place = [L](ComplexVector& buf, const std::vector<double>& k, bool imag) {
    const auto radius = static_cast<std::ptrdiff_t>(k.size() / 2);
    for (std::ptrdiff_t d = -radius; d <= radius; ++d) {
      const std::size_t idx =
          d <= 0 ? static_cast<std::size_t>(-d) : L - static_cast<std::size_t>(d);
      const double v = k[static_cast<std::size_t>(d + radius)];
      if (imag) {
        buf[idx] += Complex(0.0, v);
      } else {
        buf[idx] += Complex(v, 0.0);
      }
    }
  };

  for (std::size_t i = 0; i < spectral_scales.size(); i += 2) {
    PackedPair pair;
    pair.scale_a = spectral_scales[i];
    pair.spec.assign(L, Complex(0.0, 0.0));
    place(pair.spec, kernels_[pair.scale_a], /*imag=*/false);
    if (i + 1 < spectral_scales.size()) {
      pair.scale_b = spectral_scales[i + 1];
      pair.has_b = true;
      place(pair.spec, kernels_[pair.scale_b], /*imag=*/true);
    }
    bank->plan.forward(pair.spec);
    const std::size_t pi = bank->pairs.size();
    bank->pair_index[pair.scale_a] = pi;
    if (pair.has_b) {
      bank->pair_index[pair.scale_b] = pi;
    }
    bank->pairs.push_back(std::move(pair));
  }

  banks_->banks.push_back(std::move(bank));
  return *banks_->banks.back();
}

void Cwt::direct_row(const std::vector<double>& trace, std::size_t j,
                     std::span<double> out) const {
  const std::vector<double>& k = kernels_[j];
  const auto radius = static_cast<std::ptrdiff_t>(k.size() / 2);
  const std::size_t n = trace.size();
  for (std::size_t t = 0; t < n; ++t) {
    // Correlation of the trace with the kernel centred at t; zero outside.
    const auto tt = static_cast<std::ptrdiff_t>(t);
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(-radius, -tt);
    const std::ptrdiff_t hi =
        std::min<std::ptrdiff_t>(radius, static_cast<std::ptrdiff_t>(n) - 1 - tt);
    double acc = 0.0;
    const double* kp = k.data() + (lo + radius);
    const double* xp = trace.data() + (tt + lo);
    for (std::ptrdiff_t d = lo; d <= hi; ++d) acc += *kp++ * *xp++;
    out[t] = acc;
  }
}

Scalogram Cwt::transform(const std::vector<double>& trace) const {
  CwtWorkspace ws;
  return transform(trace, ws);
}

Scalogram Cwt::transform(const std::vector<double>& trace, CwtWorkspace& ws) const {
  const std::size_t n = trace.size();
  Scalogram out(scales_.size(), n, 0.0);
  if (n == 0) return out;

  if (config_.backend == CwtBackend::kDirect) {
    for (std::size_t j = 0; j < scales_.size(); ++j) direct_row(trace, j, out.row(j));
    return out;
  }

  const SpectralBank& bank = bank_for(n);
  if (bank.any_spectral) {
    const std::size_t L = bank.fft_size;
    ws.freq_.assign(L, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < n; ++i) ws.freq_[i] = Complex(trace[i], 0.0);
    bank.plan.forward(ws.freq_);
    ws.work_.resize(L);
    for (const PackedPair& pair : bank.pairs) {
      multiply_spectra(ws.freq_, pair.spec, ws.work_);
      bank.plan.inverse(ws.work_);
      auto row_a = out.row(pair.scale_a);
      if (pair.has_b) {
        auto row_b = out.row(pair.scale_b);
        for (std::size_t t = 0; t < n; ++t) {
          row_a[t] = ws.work_[t].real();
          row_b[t] = ws.work_[t].imag();
        }
      } else {
        for (std::size_t t = 0; t < n; ++t) row_a[t] = ws.work_[t].real();
      }
    }
  }
  for (std::size_t j = 0; j < scales_.size(); ++j) {
    if (bank.pair_index[j] == SIZE_MAX) direct_row(trace, j, out.row(j));
  }
  return out;
}

std::size_t Cwt::marshal(TraceBatch traces, std::vector<double>& soa) {
  if (traces.empty()) {
    throw std::invalid_argument("Cwt: empty trace batch");
  }
  const std::size_t n = traces.front() == nullptr ? 0 : traces.front()->size();
  const std::size_t lanes = traces.size();
  for (const std::vector<double>* t : traces) {
    if (t == nullptr || t->size() != n) {
      throw std::invalid_argument("Cwt: batch traces must be non-null and share one length");
    }
  }
  soa.resize(n * lanes);
  // Lane innermost: the writes stream through soa once while the reads fan
  // out over `lanes` sequential sources -- the prefetcher tracks all of them,
  // where the transposed order (one read stream, lane-strided writes) touched
  // a fresh cache line per element.
  double* __restrict dst = soa.data();
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t l = 0; l < lanes; ++l) *dst++ = (*traces[l])[t];
  }
  return n;
}

void Cwt::gather_soa(std::span<const double> soa_block, std::size_t n,
                     std::size_t lanes, std::span<const CwtPoint> points,
                     std::span<double> out) const {
  if (soa_block.size() != n * lanes) {
    throw std::invalid_argument("Cwt::gather_soa: block size mismatch");
  }
  if (out.size() != points.size() * lanes) {
    throw std::invalid_argument("Cwt::gather_soa: output size mismatch");
  }
  const double* soa = soa_block.data();

  // One lane-parallel correlation per point, each lane accumulating its own
  // sum in scalar tap order (bit-identical to Cwt::coefficient on that
  // lane).  Every tile of lanes rides in registers across the whole tap
  // loop (see lanes.hpp for why that beats memory accumulators), and runs
  // T::kInterleave points side by side.  A point whose kernel misses the
  // window has no taps and reads 0, as coefficient() does.  Points
  // resolve their taps a fixed block at a time.
  constexpr std::size_t kBlock = 64;
  std::array<Taps, kBlock> block;
  linalg::dispatch_lanes([&]<std::size_t VB>() {
    for (std::size_t b = 0; b < points.size(); b += kBlock) {
      const std::size_t count = std::min(kBlock, points.size() - b);
      for (std::size_t i = 0; i < count; ++i) {
        const CwtPoint& pt = points[b + i];
        const auto nn = static_cast<std::ptrdiff_t>(n);
        const auto t = static_cast<std::ptrdiff_t>(pt.k);
        const std::vector<double>& kern = kernels_.at(pt.j);
        const auto radius = static_cast<std::ptrdiff_t>(kern.size() / 2);
        const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(-radius, -t);
        const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(radius, nn - 1 - t);
        block[i] = hi < lo ? Taps{}
                           : Taps{kern.data() + (lo + radius),
                                  soa + static_cast<std::size_t>(t + lo) * lanes,
                                  static_cast<std::size_t>(hi - lo + 1)};
      }
      double* dst = out.data() + b * lanes;
      linalg::for_each_tile<VB>(lanes, [&]<class T>(std::size_t l0) {
        std::size_t i = 0;
        for (; i + T::kInterleave <= count; i += T::kInterleave) {
          correlate<T, T::kInterleave>(block.data() + i, lanes, l0, dst + i * lanes);
        }
        for (; i < count; ++i) correlate<T, 1>(block.data() + i, lanes, l0, dst + i * lanes);
      });
    }
  });
}

linalg::Matrix Cwt::coefficients_soa(std::span<const double> soa, std::size_t n,
                                     std::size_t lanes,
                                     std::span<const std::size_t> js,
                                     std::span<const std::size_t> ks,
                                     CwtBatchWorkspace& /*ws*/) const {
  if (js.size() != ks.size()) {
    throw std::invalid_argument("Cwt::coefficients_soa: js/ks length mismatch");
  }
  std::vector<CwtPoint> points(js.size());
  for (std::size_t i = 0; i < js.size(); ++i) points[i] = {js[i], ks[i]};
  linalg::Matrix out(js.size(), lanes);
  gather_soa(soa, n, lanes, points, out.data());
  return out;
}

double Cwt::coefficient(const std::vector<double>& trace, std::size_t j,
                        std::size_t k) const {
  const std::vector<double>& kern = kernels_.at(j);
  const auto radius = static_cast<std::ptrdiff_t>(kern.size() / 2);
  const auto n = static_cast<std::ptrdiff_t>(trace.size());
  const auto t = static_cast<std::ptrdiff_t>(k);
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(-radius, -t);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(radius, n - 1 - t);
  double acc = 0.0;
  const double* kp = kern.data() + (lo + radius);
  const double* xp = trace.data() + (t + lo);
  for (std::ptrdiff_t d = lo; d <= hi; ++d) acc += *kp++ * *xp++;
  return acc;
}

double Cwt::pseudo_frequency(std::size_t j) const {
  const double s = scales_.at(j);
  switch (config_.family) {
    case WaveletFamily::kMorlet:
      return kMorletOmega0 / (2.0 * std::numbers::pi * s);
    case WaveletFamily::kRicker:
      // Peak of the Ricker spectrum: f = sqrt(2)/(2 pi s) * ~1.0 factor.
      return std::sqrt(2.0) / (2.0 * std::numbers::pi * s);
  }
  throw std::invalid_argument("pseudo_frequency: unknown family");
}

}  // namespace sidis::dsp
