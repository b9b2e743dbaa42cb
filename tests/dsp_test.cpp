// Unit tests for the DSP layer: FFT, convolution, CWT, signal utilities.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>

#include "dsp/fft.hpp"
#include "dsp/signal.hpp"
#include "dsp/wavelet.hpp"

namespace sidis::dsp {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  ComplexVector x(3);
  EXPECT_THROW(fft(x), std::invalid_argument);
}

TEST(Fft, ForwardInverseRoundTrip) {
  std::mt19937_64 rng(1);
  std::normal_distribution<double> d(0, 1);
  ComplexVector x(64);
  for (auto& c : x) c = Complex(d(rng), d(rng));
  ComplexVector y = x;
  fft(y);
  ifft(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST(Fft, PureToneLandsInOneBin) {
  const std::size_t n = 128;
  std::vector<double> x(n);
  const std::size_t bin = 5;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  }
  const std::vector<double> mag = magnitude_spectrum(x);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < mag.size(); ++i) {
    if (mag[i] > mag[argmax]) argmax = i;
  }
  EXPECT_EQ(argmax, bin);
  EXPECT_NEAR(mag[bin], static_cast<double>(n) / 2.0, 1e-9);
}

TEST(Fft, ParsevalHolds) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> d(0, 1);
  std::vector<double> x(256);
  for (double& v : x) v = d(rng);
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  const ComplexVector spec = rfft(x);
  double freq_energy = 0.0;
  for (const Complex& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(spec.size()), time_energy, 1e-8);
}

TEST(Fft, PropertiesHoldAtRandomPowerOfTwoSizes) {
  std::mt19937_64 rng(11);
  std::normal_distribution<double> d(0, 1);
  std::uniform_int_distribution<int> log_size(1, 12);  // 2 .. 4096
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = std::size_t{1} << log_size(rng);
    ComplexVector x(n), y(n);
    for (auto& c : x) c = Complex(d(rng), d(rng));
    for (auto& c : y) c = Complex(d(rng), d(rng));

    // Round trip: ifft(fft(x)) == x.
    ComplexVector rt = x;
    fft(rt);
    ifft(rt);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(rt[i].real(), x[i].real(), 1e-9) << "n=" << n;
      EXPECT_NEAR(rt[i].imag(), x[i].imag(), 1e-9) << "n=" << n;
    }

    // Linearity: fft(a x + b y) == a fft(x) + b fft(y).
    const double a = coeff(rng), b = coeff(rng);
    ComplexVector mix(n);
    for (std::size_t i = 0; i < n; ++i) mix[i] = a * x[i] + b * y[i];
    ComplexVector fx = x, fy = y;
    fft(mix);
    fft(fx);
    fft(fy);
    for (std::size_t i = 0; i < n; ++i) {
      const Complex want = a * fx[i] + b * fy[i];
      EXPECT_NEAR(mix[i].real(), want.real(), 1e-8) << "n=" << n;
      EXPECT_NEAR(mix[i].imag(), want.imag(), 1e-8) << "n=" << n;
    }

    // Parseval: sum |X|^2 == n * sum |x|^2.
    double te = 0.0, fe = 0.0;
    for (const Complex& c : x) te += std::norm(c);
    for (const Complex& c : fx) fe += std::norm(c);
    EXPECT_NEAR(fe / static_cast<double>(n), te, 1e-8 * te + 1e-10) << "n=" << n;
  }
}

TEST(Fft, PlanMatchesFreeFunctionsAndChecksSize) {
  const FftPlan plan(32);
  EXPECT_EQ(plan.size(), 32u);
  std::mt19937_64 rng(12);
  std::normal_distribution<double> d(0, 1);
  ComplexVector x(32);
  for (auto& c : x) c = Complex(d(rng), d(rng));
  ComplexVector via_plan = x, via_free = x;
  plan.forward(via_plan);
  fft(via_free);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_plan[i].real(), via_free[i].real());
    EXPECT_DOUBLE_EQ(via_plan[i].imag(), via_free[i].imag());
  }
  ComplexVector wrong(16);
  EXPECT_THROW(plan.forward(wrong), std::invalid_argument);
  EXPECT_THROW(FftPlan(12), std::invalid_argument);
}

TEST(Convolve, MatchesHandComputed) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, 1};
  const std::vector<double> c = convolve(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(c[0], 1, 1e-12);
  EXPECT_NEAR(c[1], 3, 1e-12);
  EXPECT_NEAR(c[2], 5, 1e-12);
  EXPECT_NEAR(c[3], 3, 1e-12);
}

TEST(Convolve, FftPathMatchesDirect) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> d(0, 1);
  std::vector<double> a(200), b(90);  // big enough to take the FFT path
  for (double& v : a) v = d(rng);
  for (double& v : b) v = d(rng);
  const std::vector<double> fast = convolve(a, b);
  std::vector<double> slow(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) slow[i + j] += a[i] * b[j];
  }
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) EXPECT_NEAR(fast[i], slow[i], 1e-8);
}

TEST(Convolve, EmptyInputsYieldEmpty) {
  EXPECT_TRUE(convolve({}, {1, 2}).empty());
  EXPECT_TRUE(convolve({1, 2}, {}).empty());
}

TEST(Wavelet, MorletIsEvenAndPeaksAtZero) {
  EXPECT_DOUBLE_EQ(mother_wavelet(WaveletFamily::kMorlet, 0.5),
                   mother_wavelet(WaveletFamily::kMorlet, -0.5));
  EXPECT_GT(mother_wavelet(WaveletFamily::kMorlet, 0.0),
            std::abs(mother_wavelet(WaveletFamily::kMorlet, 2.0)));
}

TEST(Wavelet, RickerZeroCrossingsAtPlusMinusOne) {
  EXPECT_NEAR(mother_wavelet(WaveletFamily::kRicker, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(mother_wavelet(WaveletFamily::kRicker, -1.0), 0.0, 1e-12);
  EXPECT_GT(mother_wavelet(WaveletFamily::kRicker, 0.0), 0.0);
  EXPECT_LT(mother_wavelet(WaveletFamily::kRicker, 1.5), 0.0);
}

TEST(Cwt, ConfigValidation) {
  CwtConfig bad;
  bad.num_scales = 0;
  EXPECT_THROW(Cwt{bad}, std::invalid_argument);
  bad = {};
  bad.min_scale = 10.0;
  bad.max_scale = 2.0;
  EXPECT_THROW(Cwt{bad}, std::invalid_argument);
  // Non-finite or non-positive fields are refused, not turned into kernels.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double radius : {nan, kInf, 0.0, -1.0}) {
    bad = {};
    bad.kernel_radius = radius;
    EXPECT_THROW(Cwt{bad}, std::invalid_argument) << "kernel_radius=" << radius;
  }
  for (const double scale : {nan, kInf}) {
    bad = {};
    bad.max_scale = scale;
    EXPECT_THROW(Cwt{bad}, std::invalid_argument) << "max_scale=" << scale;
    bad = {};
    bad.min_scale = scale;
    EXPECT_THROW(Cwt{bad}, std::invalid_argument) << "min_scale=" << scale;
  }
  // A bank above the tap ceiling is refused before it is allocated.
  for (const double radius : {1e7, 1e300}) {
    bad = {};
    bad.kernel_radius = radius;
    EXPECT_THROW(Cwt{bad}, std::invalid_argument) << "kernel_radius=" << radius;
  }
  bad = {};
  bad.num_scales = kMaxKernelTaps + 1;
  EXPECT_THROW(Cwt{bad}, std::invalid_argument);
  bad = {};
  bad.num_scales = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(Cwt{bad}, std::invalid_argument);
  bad = {};
  bad.num_scales = kMaxKernelTaps / 2;  // under the count ceiling, over the taps
  EXPECT_THROW(Cwt{bad}, std::invalid_argument);
  // The default bank is far under the ceiling.
  EXPECT_NO_THROW(Cwt{CwtConfig{}});
}

TEST(Cwt, OutputShapeMatchesConfig) {
  CwtConfig cfg;
  cfg.num_scales = 12;
  const Cwt cwt(cfg);
  const Scalogram s = cwt.transform(std::vector<double>(100, 0.0));
  EXPECT_EQ(s.rows(), 12u);
  EXPECT_EQ(s.cols(), 100u);
}

TEST(Cwt, ZeroSignalGivesZeroCoefficients) {
  const Cwt cwt{CwtConfig{}};
  const Scalogram s = cwt.transform(std::vector<double>(64, 0.0));
  EXPECT_DOUBLE_EQ(s.max_abs(), 0.0);
}

TEST(Cwt, DcIsSuppressedAwayFromEdges) {
  // Zero-mean wavelets kill constant signals in the interior -- the property
  // that makes CWT features robust to DC covariate shift.
  CwtConfig cfg;
  cfg.num_scales = 10;
  cfg.max_scale = 8.0;
  const Cwt cwt(cfg);
  const Scalogram s = cwt.transform(std::vector<double>(400, 1.0));
  for (std::size_t j = 0; j < s.rows(); ++j) {
    for (std::size_t k = 150; k < 250; ++k) {
      // The discretely sampled Morlet has a ~1e-4 residual mean.
      EXPECT_NEAR(s(j, k), 0.0, 1e-3) << "scale " << j << " time " << k;
    }
  }
}

TEST(Cwt, RespondsStrongestAtMatchingScale) {
  // A tone of frequency f should peak at the scale whose pseudo-frequency is
  // closest to f.
  CwtConfig cfg;
  cfg.num_scales = 30;
  cfg.min_scale = 2.0;
  cfg.max_scale = 40.0;
  const Cwt cwt(cfg);
  const double f = 0.05;  // cycles per sample
  std::vector<double> x(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * f * static_cast<double>(i));
  }
  const Scalogram s = cwt.transform(x);
  // Energy per scale in the interior region.
  std::size_t best_scale = 0;
  double best_energy = -1.0;
  for (std::size_t j = 0; j < s.rows(); ++j) {
    double e = 0.0;
    for (std::size_t k = 200; k < 400; ++k) e += s(j, k) * s(j, k);
    if (e > best_energy) {
      best_energy = e;
      best_scale = j;
    }
  }
  // The matching scale index by pseudo-frequency:
  std::size_t expect_scale = 0;
  double best_df = 1e9;
  for (std::size_t j = 0; j < cwt.num_scales(); ++j) {
    const double df = std::abs(cwt.pseudo_frequency(j) - f);
    if (df < best_df) {
      best_df = df;
      expect_scale = j;
    }
  }
  EXPECT_NEAR(static_cast<double>(best_scale), static_cast<double>(expect_scale), 2.0);
}

TEST(Cwt, SparseCoefficientMatchesFullGrid) {
  std::mt19937_64 rng(4);
  std::normal_distribution<double> d(0, 1);
  std::vector<double> x(315);
  for (double& v : x) v = d(rng);
  const Cwt cwt{CwtConfig{}};
  const Scalogram s = cwt.transform(x);
  for (std::size_t j : {0u, 10u, 25u, 49u}) {
    for (std::size_t k : {0u, 7u, 150u, 314u}) {
      EXPECT_NEAR(cwt.coefficient(x, j, k), s(j, k), 1e-12);
    }
  }
}

TEST(Cwt, SpectralMatchesDirectEverywhere) {
  // The FFT path must reproduce the reference time-domain correlation to
  // ~machine precision across families, scale spacings, and trace lengths
  // (including lengths shorter than the widest kernel).
  std::mt19937_64 rng(13);
  std::normal_distribution<double> d(0, 1);
  for (const WaveletFamily family : {WaveletFamily::kMorlet, WaveletFamily::kRicker}) {
    for (const bool log_spacing : {true, false}) {
      for (const std::size_t len : {std::size_t{100}, std::size_t{315}, std::size_t{500}}) {
        CwtConfig cfg;
        cfg.family = family;
        cfg.log_spacing = log_spacing;
        cfg.backend = CwtBackend::kDirect;
        const Cwt direct(cfg);
        cfg.backend = CwtBackend::kSpectral;
        const Cwt spectral(cfg);
        cfg.backend = CwtBackend::kAuto;
        const Cwt hybrid(cfg);

        std::vector<double> x(len);
        for (double& v : x) v = d(rng);
        const Scalogram want = direct.transform(x);
        const Scalogram got_spectral = spectral.transform(x);
        const Scalogram got_auto = hybrid.transform(x);
        ASSERT_EQ(got_spectral.rows(), want.rows());
        ASSERT_EQ(got_spectral.cols(), want.cols());
        double err = 0.0, err_auto = 0.0;
        for (std::size_t i = 0; i < want.data().size(); ++i) {
          err = std::max(err, std::abs(got_spectral.data()[i] - want.data()[i]));
          err_auto = std::max(err_auto, std::abs(got_auto.data()[i] - want.data()[i]));
        }
        EXPECT_LT(err, 1e-9) << "family=" << static_cast<int>(family)
                             << " log=" << log_spacing << " len=" << len;
        EXPECT_LT(err_auto, 1e-9) << "family=" << static_cast<int>(family)
                                  << " log=" << log_spacing << " len=" << len;
      }
    }
  }
}

TEST(Cwt, WorkspaceReuseAcrossTraceLengthsIsSound) {
  // One workspace serving transforms of different lengths must give the same
  // answers as fresh workspaces (buffers are resized, never trusted stale).
  std::mt19937_64 rng(14);
  std::normal_distribution<double> d(0, 1);
  const Cwt cwt{CwtConfig{}};
  CwtWorkspace shared_ws;
  for (const std::size_t len : {std::size_t{400}, std::size_t{64}, std::size_t{315}}) {
    std::vector<double> x(len);
    for (double& v : x) v = d(rng);
    const Scalogram fresh = cwt.transform(x);
    const Scalogram reused = cwt.transform(x, shared_ws);
    for (std::size_t i = 0; i < fresh.data().size(); ++i) {
      EXPECT_DOUBLE_EQ(reused.data()[i], fresh.data()[i]) << "len=" << len;
    }
  }
}

TEST(Cwt, BatchedCoefficientsMatchPerPointAcrossBackends) {
  std::mt19937_64 rng(15);
  std::normal_distribution<double> d(0, 1);
  std::vector<double> x(315);
  for (double& v : x) v = d(rng);

  // Dense cluster on one scale plus scattered single points; every backend
  // computes each point as one direct correlation.  A window is its own
  // one-lane SoA block, the batch a single window's features ride in.
  std::vector<CwtPoint> points;
  for (std::size_t k = 0; k < 300; k += 4) points.push_back({42, k});
  for (std::size_t j : {0u, 7u, 21u, 49u}) points.push_back({j, 11 * (j + 1) % 315});
  for (const CwtBackend backend :
       {CwtBackend::kAuto, CwtBackend::kDirect, CwtBackend::kSpectral}) {
    CwtConfig cfg;
    cfg.backend = backend;
    const Cwt cwt(cfg);
    std::vector<double> got(points.size());
    cwt.gather_soa(x, x.size(), 1, points, got);
    EXPECT_THROW(cwt.gather_soa(x, x.size(), 1, points, std::span(got).first(points.size() - 1)),
                 std::invalid_argument);
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(cwt.coefficient(x, points[i].j, points[i].k)))
          << "backend=" << static_cast<int>(backend) << " i=" << i;
    }
  }
}

TEST(Cwt, ScalesAreMonotonic) {
  const Cwt cwt{CwtConfig{}};
  for (std::size_t j = 1; j < cwt.num_scales(); ++j) {
    EXPECT_GT(cwt.scale(j), cwt.scale(j - 1));
    EXPECT_LT(cwt.pseudo_frequency(j), cwt.pseudo_frequency(j - 1));
  }
}

TEST(Signal, MeanVarianceStd) {
  const std::vector<double> x{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({1.0}), 0.0);
}

TEST(Signal, ZscoreHasZeroMeanUnitStd) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> d(5, 3);
  std::vector<double> x(500);
  for (double& v : x) v = d(rng);
  const std::vector<double> z = zscore(x);
  EXPECT_NEAR(mean(z), 0.0, 1e-10);
  EXPECT_NEAR(stddev(z), 1.0, 1e-10);
}

TEST(Signal, ZscoreInvariantToAffine) {
  const std::vector<double> x{1, 4, 2, 8, 5};
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 3.0 * x[i] + 10.0;
  const auto zx = zscore(x);
  const auto zy = zscore(y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(zx[i], zy[i], 1e-10);
}

TEST(Signal, MinMaxNormalize) {
  const auto n = min_max_normalize({2, 4, 6});
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
  // Constant signals map to zeros, not NaN.
  for (double v : min_max_normalize({3, 3, 3})) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Signal, DetrendRemovesLine) {
  std::vector<double> x(50);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 2.0 + 0.5 * static_cast<double>(i);
  const auto d = detrend_linear(x);
  for (double v : d) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Signal, MovingAverageSmoothsImpulse) {
  std::vector<double> x(9, 0.0);
  x[4] = 9.0;
  const auto y = moving_average(x, 3);
  EXPECT_NEAR(y[3], 3.0, 1e-12);
  EXPECT_NEAR(y[4], 3.0, 1e-12);
  EXPECT_NEAR(y[5], 3.0, 1e-12);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_THROW(moving_average(x, 0), std::invalid_argument);
}

TEST(Signal, LowpassAttenuatesHighFrequency) {
  std::vector<double> lo(400), hi(400);
  for (std::size_t i = 0; i < 400; ++i) {
    lo[i] = std::sin(2.0 * std::numbers::pi * 0.01 * static_cast<double>(i));
    hi[i] = std::sin(2.0 * std::numbers::pi * 0.4 * static_cast<double>(i));
  }
  const auto flo = lowpass_single_pole(lo, 0.05);
  const auto fhi = lowpass_single_pole(hi, 0.05);
  EXPECT_GT(stddev(flo), 0.5 * stddev(lo));
  EXPECT_LT(stddev(fhi), 0.2 * stddev(hi));
  EXPECT_THROW(lowpass_single_pole(lo, 0.0), std::invalid_argument);
}

TEST(Signal, QuantizeSnapsToGrid) {
  const auto q = quantize({0.0, 0.3, 0.5, 1.0, 2.0}, 2, 0.0, 1.0);  // 4 levels
  EXPECT_DOUBLE_EQ(q[0], 0.0);
  EXPECT_NEAR(q[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(q[2], 2.0 / 3.0, 1e-12);  // 0.5 rounds up at midpoint
  EXPECT_DOUBLE_EQ(q[3], 1.0);
  EXPECT_DOUBLE_EQ(q[4], 1.0);  // clamped
  EXPECT_THROW(quantize({0.0}, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(quantize({0.0}, 8, 1, 1), std::invalid_argument);
}

TEST(Signal, AlignmentRecoversKnownLag) {
  std::mt19937_64 rng(6);
  std::normal_distribution<double> d(0, 1);
  std::vector<double> ref(200);
  for (double& v : ref) v = d(rng);
  for (int lag : {-3, 0, 4}) {
    const std::vector<double> shifted = shift(ref, lag);
    EXPECT_EQ(best_alignment_lag(ref, shifted, 8), lag);
  }
}

TEST(Signal, ShiftZeroFills) {
  const std::vector<double> x{1, 2, 3};
  const auto right = shift(x, 1);
  EXPECT_DOUBLE_EQ(right[0], 0.0);
  EXPECT_DOUBLE_EQ(right[1], 1.0);
  const auto left = shift(x, -1);
  EXPECT_DOUBLE_EQ(left[2], 0.0);
  EXPECT_DOUBLE_EQ(left[0], 2.0);
}

TEST(Signal, SubtractAndLocalMaxima) {
  EXPECT_EQ(subtract({3, 4}, {1, 1}), (std::vector<double>{2, 3}));
  EXPECT_THROW(subtract({1}, {1, 2}), std::invalid_argument);
  const auto peaks = local_maxima({0, 2, 1, 5, 1, 0.5, 0.8, 0.2}, 0.6);
  EXPECT_EQ(peaks, (std::vector<std::size_t>{1, 3, 6}));
}

}  // namespace
}  // namespace sidis::dsp
