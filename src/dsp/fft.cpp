#include "dsp/fft.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace sidis::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {
bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }
}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");

  // Bit-reversal permutation, stored as (i, j) swap pairs with i < j so the
  // hot path neither recomputes reversals nor visits fixed points.
  bitrev_.reserve(n / 2);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      bitrev_.push_back(static_cast<std::uint32_t>(i));
      bitrev_.push_back(static_cast<std::uint32_t>(j));
    }
  }

  // Stage-concatenated forward twiddles: the stage with butterfly span `len`
  // stores w_len^k = exp(-2 pi i k / len) for k in [0, len/2) at offset
  // len/2 - 1 (offsets 1 + 2 + ... + len/4 sum to len/2 - 1).  Total n - 1.
  if (n > 1) {
    twiddle_.resize(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
      Complex* w = twiddle_.data() + (half - 1);
      for (std::size_t k = 0; k < half; ++k) {
        w[k] = Complex(std::cos(ang * static_cast<double>(k)),
                       std::sin(ang * static_cast<double>(k)));
      }
    }
  }
}

void FftPlan::run(ComplexVector& x, bool inverse) const {
  if (x.size() != n_) throw std::invalid_argument("FftPlan: buffer/plan size mismatch");

  // The whole transform runs on the raw interleaved-double view of the
  // buffer ([complex.numbers.general] guarantees the layout): going through
  // std::complex loads/stores and operator* here costs an order of magnitude
  // -- the aggregate copies defeat the optimizer and operator* carries the
  // Annex-G NaN/inf fixup (__muldc3).
  double* xd = reinterpret_cast<double*>(x.data());
  const double* twd = reinterpret_cast<const double*>(twiddle_.data());

  for (std::size_t p = 0; p < bitrev_.size(); p += 2) {
    const std::size_t i = 2 * bitrev_[p], j = 2 * bitrev_[p + 1];
    std::swap(xd[i], xd[j]);
    std::swap(xd[i + 1], xd[j + 1]);
  }

  // Stages run fused in pairs (a radix-2^2 kernel): each fused pass touches
  // every point once instead of twice, halving the load/store traffic that
  // dominates an in-cache radix-2 sweep.  W_{4h}^{k+h} = -i * W_{4h}^k, so
  // the second stage's upper-half twiddles are a free rotation.
  //
  // Every complex product's real part ADDS the cross term against a negated
  // twiddle (x * n1i == -(x * w1i) exactly) instead of subtracting it.  With
  // an a*b - c*d / a*b + c*d pair on adjacent doubles, GCC 12's SLP add/sub
  // pattern emits vfmaddsub on FMA targets even under -ffp-contract=off, so
  // this interleaved loop rounded differently under -march=native than in a
  // baseline build.  Same-sign halves leave nothing to fuse, so every target
  // rounds the transform alike.
  const double sign = inverse ? -1.0 : 1.0;
  std::size_t len = 2;
  for (; len * 2 <= n_; len <<= 2) {
    const std::size_t h = len / 2;
    const double* w1 = twd + 2 * (h - 1);      // W_{2h}^k, k in [0, h)
    const double* w2 = twd + 2 * (2 * h - 1);  // W_{4h}^k, k in [0, 2h)
    for (std::size_t i = 0; i < n_; i += 4 * h) {
      double* p0 = xd + 2 * i;
      double* p1 = xd + 2 * (i + h);
      double* p2 = xd + 2 * (i + 2 * h);
      double* p3 = xd + 2 * (i + 3 * h);
      for (std::size_t k = 0; k < h; ++k) {
        const double w1r = w1[2 * k], w1i = sign * w1[2 * k + 1];
        const double w2r = w2[2 * k], w2i = sign * w2[2 * k + 1];
        const double n1i = -sign * w1[2 * k + 1], n2i = -sign * w2[2 * k + 1];
        // First stage: (a,b) and (c,d) butterflies with W_{2h}^k.
        const double br = p1[2 * k], bi = p1[2 * k + 1];
        const double t1r = br * w1r + bi * n1i;
        const double t1i = br * w1i + bi * w1r;
        const double ar = p0[2 * k], ai = p0[2 * k + 1];
        const double ur = ar + t1r, ui = ai + t1i;
        const double vr = ar - t1r, vi = ai - t1i;
        const double dr = p3[2 * k], di = p3[2 * k + 1];
        const double t2r = dr * w1r + di * n1i;
        const double t2i = dr * w1i + di * w1r;
        const double cr = p2[2 * k], ci = p2[2 * k + 1];
        const double pr = cr + t2r, pi = ci + t2i;
        const double qr = cr - t2r, qi = ci - t2i;
        // Second stage: (u,p) with W_{4h}^k, (v,q) with -i * W_{4h}^k
        // (conjugated for the inverse).
        const double s1r = pr * w2r + pi * n2i;
        const double s1i = pr * w2i + pi * w2r;
        const double s2r0 = qr * w2r + qi * n2i;
        const double s2i0 = qr * w2i + qi * w2r;
        const double s2r = sign * s2i0;
        const double s2i = -sign * s2r0;
        p0[2 * k] = ur + s1r;
        p0[2 * k + 1] = ui + s1i;
        p2[2 * k] = ur - s1r;
        p2[2 * k + 1] = ui - s1i;
        p1[2 * k] = vr + s2r;
        p1[2 * k + 1] = vi + s2i;
        p3[2 * k] = vr - s2r;
        p3[2 * k + 1] = vi - s2i;
      }
    }
  }
  if (len <= n_) {
    // Odd stage count: one plain radix-2 pass finishes the transform.
    const std::size_t half = len / 2;
    const double* tw = twd + 2 * (half - 1);
    for (std::size_t i = 0; i < n_; i += len) {
      double* a = xd + 2 * i;
      double* b = xd + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[2 * k];
        const double wi = sign * tw[2 * k + 1], nwi = -sign * tw[2 * k + 1];
        const double br = b[2 * k], bi = b[2 * k + 1];
        const double vr = br * wr + bi * nwi;
        const double vi = br * wi + bi * wr;
        const double ar = a[2 * k], ai = a[2 * k + 1];
        a[2 * k] = ar + vr;
        a[2 * k + 1] = ai + vi;
        b[2 * k] = ar - vr;
        b[2 * k + 1] = ai - vi;
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < 2 * n_; ++i) xd[i] *= inv;
  }
}

void FftPlan::forward(ComplexVector& x) const { run(x, /*inverse=*/false); }
void FftPlan::inverse(ComplexVector& x) const { run(x, /*inverse=*/true); }

const FftPlan& FftPlan::shared(std::size_t n) {
  // Thread-local keeps the cache lock-free; a handful of sizes per thread at
  // ~24 bytes/sample is cheap next to one scalogram.
  thread_local std::map<std::size_t, std::unique_ptr<FftPlan>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, std::make_unique<FftPlan>(n)).first;
  }
  return *it->second;
}

void fft(ComplexVector& x) { FftPlan::shared(x.size()).forward(x); }
void ifft(ComplexVector& x) { FftPlan::shared(x.size()).inverse(x); }

ComplexVector rfft(const std::vector<double>& x) {
  ComplexVector c(next_pow2(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = Complex(x[i], 0.0);
  fft(c);
  return c;
}

std::vector<double> magnitude_spectrum(const std::vector<double>& x) {
  const ComplexVector c = rfft(x);
  std::vector<double> mag(c.size() / 2 + 1);
  for (std::size_t i = 0; i < mag.size(); ++i) mag[i] = std::abs(c[i]);
  return mag;
}

std::vector<double> convolve(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out_len = a.size() + b.size() - 1;

  // Direct convolution wins while the multiply count a.size()*b.size() stays
  // below ~4096 (two ~64-tap signals); beyond that the three transforms
  // amortize.
  if (a.size() * b.size() <= 4096) {
    std::vector<double> out(out_len, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
    }
    return out;
  }

  const std::size_t n = next_pow2(out_len);
  const FftPlan& plan = FftPlan::shared(n);
  ComplexVector fa(n), fb(n);
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = Complex(a[i], 0.0);
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = Complex(b[i], 0.0);
  plan.forward(fa);
  plan.forward(fb);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  plan.inverse(fa);
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = fa[i].real();
  return out;
}

}  // namespace sidis::dsp
