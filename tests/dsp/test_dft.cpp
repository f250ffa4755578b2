// Transform-level properties of dft_bins and reconstruct against an
// O(N²) oracle. The `Fft` and `FftRoundTrip` suites keep the names they
// had when a radix-2/Bluestein FFT computed these spectra; the
// "Bluestein" cases are the non-power-of-two lengths.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "dsp/spectrum.h"
#include "traffic/profiles.h"

namespace cellscope {
namespace {

/// O(N²) reference DFT of every bin, each angle computed from k·t
/// directly (no table, no modular stepping).
std::vector<Complex> naive_dft(std::span<const double> x) {
  CS_CHECK_MSG(!x.empty(), "dft of empty input");
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * M_PI * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

std::vector<std::size_t> all_bins(std::size_t n) {
  std::vector<std::size_t> bins(n);
  std::iota(bins.begin(), bins.end(), std::size_t{0});
  return bins;
}

/// Every bin 1..n/2 — with DC and the mirrors, the whole spectrum.
std::vector<std::size_t> lower_half(std::size_t n) {
  std::vector<std::size_t> keep(n / 2);
  std::iota(keep.begin(), keep.end(), std::size_t{1});
  return keep;
}

/// max_k |a[k] − b[k]| / max_k |b[k]|.
double relative_error(const std::vector<Complex>& a,
                      const std::vector<Complex>& b) {
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return err / scale;
}

double max_error(const std::vector<double>& a, const std::vector<double>& b) {
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, std::fabs(a[i] - b[i]));
  return err;
}

TEST(DftBins, MatchesNaiveDftOnRandomAndTrafficSeries) {
  // The lengths the analyses use: a prime, the folded week, the month.
  for (const std::size_t n : {std::size_t{251}, std::size_t{1008},
                              TimeGrid::kSlots}) {
    const auto noise = random_signal(n, n);
    const auto month = zscore(
        TrafficProfile::canonical(FunctionalRegion::kTransport).series());
    const std::vector<double> traffic(month.begin(), month.begin() + n);
    for (const auto* x : {&noise, &traffic}) {
      EXPECT_LT(relative_error(dft_bins(*x, all_bins(n)), naive_dft(*x)),
                1e-9)
          << "n = " << n << (x == &noise ? " random" : " traffic");
    }
  }
}

TEST(DftBins, ReturnsBinsInRequestOrderWithRepeats) {
  const auto x = random_signal(100, 4);
  const std::size_t bins[] = {7, 3, 7, 0};
  const auto got = dft_bins(x, bins);
  const auto want = naive_dft(x);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t b = 0; b < 4; ++b)
    EXPECT_LT(std::abs(got[b] - want[bins[b]]), 1e-9) << "b = " << b;
  EXPECT_EQ(got[0], got[2]);
}

TEST(Fft, MatchesNaiveDftOnPowerOfTwo) {
  const auto x = random_signal(64, 1);
  EXPECT_LT(relative_error(dft_bins(x, all_bins(64)), naive_dft(x)), 1e-9);
}

TEST(Fft, BluesteinMatchesNaiveDftOnArbitraryLengths) {
  for (const std::size_t n : {3u, 5u, 12u, 63u, 100u, 441u}) {
    const auto x = random_signal(n, n);
    EXPECT_LT(relative_error(dft_bins(x, all_bins(n)), naive_dft(x)), 1e-9)
        << "n = " << n;
  }
}

TEST(Fft, BluesteinMatchesNaiveOnPaperLength) {
  // N = 4032, the paper's grid length.
  const auto x = random_signal(4032, 9);
  EXPECT_LT(relative_error(dft_bins(x, all_bins(4032)), naive_dft(x)), 1e-9);
}

TEST(Fft, InverseRecoversInput) {
  for (const std::size_t n : {8u, 63u, 1008u}) {
    const auto x = random_signal(n, n + 1);
    EXPECT_LT(max_error(x, reconstruct(x, lower_half(n))), 1e-9)
        << "n = " << n;
  }
}

TEST(Fft, LinearityHolds) {
  const std::size_t n = 96;  // non-power-of-two
  const auto x = random_signal(n, 2);
  const auto y = random_signal(n, 3);
  std::vector<double> combined(n);
  for (std::size_t i = 0; i < n; ++i) combined[i] = 2.0 * x[i] + 3.0 * y[i];
  const auto bins = all_bins(n);
  const auto fx = dft_bins(x, bins);
  const auto fy = dft_bins(y, bins);
  const auto fc = dft_bins(combined, bins);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(fc[i] - (2.0 * fx[i] + 3.0 * fy[i])));
  EXPECT_LT(err, 1e-9);
}

TEST(Fft, ParsevalIdentityHolds) {
  const std::size_t n = 4032;
  const auto x = random_signal(n, 5);
  const auto fx = dft_bins(x, all_bins(n));
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  double freq_energy = 0.0;
  for (const auto& v : fx) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              time_energy * 1e-9);
}

TEST(Fft, DcComponentIsTheSum) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::size_t dc[] = {0};
  const auto fx = dft_bins(x, dc);
  EXPECT_NEAR(fx[0].real(), 15.0, 1e-12);
  EXPECT_NEAR(fx[0].imag(), 0.0, 1e-12);
}

TEST(Fft, PureSinusoidConcentratesAtItsFrequency) {
  const std::size_t n = 4032;
  const std::size_t k0 = 28;
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::cos(2.0 * M_PI * static_cast<double>(k0) *
                    static_cast<double>(t) / static_cast<double>(n));
  std::vector<std::size_t> bins(99);  // k = 1..99, then the mirror
  std::iota(bins.begin(), bins.end(), std::size_t{1});
  bins.push_back(n - k0);
  const auto fx = dft_bins(x, bins);
  // Energy splits between k0 and n-k0, each of magnitude n/2.
  EXPECT_NEAR(std::abs(fx[k0 - 1]), static_cast<double>(n) / 2.0, 1e-6);
  EXPECT_NEAR(std::abs(fx.back()), static_cast<double>(n) / 2.0, 1e-6);
  for (std::size_t k = 1; k < 100; ++k) {
    if (k == k0) continue;
    EXPECT_LT(std::abs(fx[k - 1]), 1e-6);
  }
}

TEST(Fft, RealSignalSpectrumIsConjugateSymmetric) {
  const auto x = random_signal(63, 11);
  const auto fx = dft_bins(x, all_bins(x.size()));
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(fx[k].real(), fx[x.size() - k].real(), 1e-9);
    EXPECT_NEAR(fx[k].imag(), -fx[x.size() - k].imag(), 1e-9);
  }
}

TEST(Fft, InverseRealRoundTrip) {
  const auto x = random_signal(4032, 13);
  EXPECT_LT(max_error(x, reconstruct(x, lower_half(x.size()))), 1e-9);
}

TEST(Fft, SizeOneIsIdentity) {
  const std::vector<double> x = {3.0};
  const std::size_t dc[] = {0};
  EXPECT_NEAR(std::abs(dft_bins(x, dc)[0] - Complex(3.0, 0.0)), 0.0, 1e-12);
  EXPECT_EQ(reconstruct(x, {}), x);
}

TEST(Fft, EmptyInputThrows) {
  const std::size_t dc[] = {0};
  EXPECT_THROW(dft_bins(std::vector<double>{}, dc), Error);
  EXPECT_THROW(dft_bins(std::vector<double>{}, {}), Error);
  EXPECT_THROW(reconstruct(std::vector<double>{}, {}), Error);
}

// Property sweep: round trip across many lengths, including primes.
class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, ForwardInverseIsIdentity) {
  const auto n = GetParam();
  const auto x = random_signal(n, 1000 + n);
  EXPECT_LT(max_error(x, reconstruct(x, lower_half(n))), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTrip,
                         ::testing::Values(2, 3, 7, 16, 17, 31, 97, 128, 257,
                                           1008, 2016, 4032));

}  // namespace
}  // namespace cellscope
