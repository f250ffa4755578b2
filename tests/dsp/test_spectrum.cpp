#include "dsp/spectrum.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "traffic/profiles.h"

namespace cellscope {
namespace {

std::vector<double> sinusoid(std::size_t n, std::size_t k, double amplitude,
                             double phase) {
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = amplitude * std::cos(2.0 * M_PI * static_cast<double>(k) *
                                    static_cast<double>(t) /
                                    static_cast<double>(n) +
                                phase);
  return x;
}

/// Coefficient X[k] of `x`.
Complex coefficient(std::span<const double> x, std::size_t k) {
  const std::size_t bins[] = {k};
  return dft_bins(x, bins)[0];
}

TEST(Spectrum, PrincipalComponentConstantsMatchThePaper) {
  // §5.1: k=4 (week), k=28 (day), k=56 (half day) on the 4-week grid.
  EXPECT_EQ(kWeeklyComponent, 4u);
  EXPECT_EQ(kDailyComponent, 28u);
  EXPECT_EQ(kHalfDailyComponent, 56u);
  // Sanity: k cycles over 4032 slots -> period in days.
  EXPECT_EQ(TimeGrid::kDays / kWeeklyComponent, 7u);
  EXPECT_EQ(TimeGrid::kDays / kDailyComponent, 1u);
}

TEST(Spectrum, NormalizedAmplitudeRecoversSinusoidAmplitude) {
  const auto x = sinusoid(4032, 28, 3.5, 0.7);
  EXPECT_NEAR(normalized_amplitude(coefficient(x, 28), x.size()), 3.5, 1e-9);
}

TEST(Spectrum, PhaseRecoversSinusoidPhase) {
  const auto x = sinusoid(4032, 28, 1.0, 0.7);
  EXPECT_NEAR(std::arg(coefficient(x, 28)), 0.7, 1e-9);
}

TEST(Spectrum, PhaseShiftIsMeasurable) {
  // Shifting a daily pattern later in time lowers its phase angle
  // (e^{-i...} convention) — the mechanism behind the Fig. 15(b) ordering.
  const auto early = sinusoid(4032, 28, 1.0, 0.0);
  const auto late = sinusoid(4032, 28, 1.0, -0.5);  // peak 0.5 rad later
  EXPECT_NEAR(
      std::arg(coefficient(early, 28)) - std::arg(coefficient(late, 28)), 0.5,
      1e-9);
}

TEST(Spectrum, ReconstructionKeepsOnlySelectedComponents) {
  auto x = sinusoid(4032, 28, 2.0, 0.0);
  const auto other = sinusoid(4032, 100, 1.0, 0.3);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += other[i] + 5.0;  // +DC
  const std::size_t keep[] = {28};
  const auto reconstructed = reconstruct(x, keep);
  // Expect DC + the k=28 sinusoid, with k=100 removed.
  const auto want = sinusoid(4032, 28, 2.0, 0.0);
  for (std::size_t i = 0; i < x.size(); i += 97)
    EXPECT_NEAR(reconstructed[i], want[i] + 5.0, 1e-9);
}

TEST(Spectrum, FullReconstructionIsIdentity) {
  Rng rng(3);
  std::vector<double> x(512);
  for (auto& v : x) v = rng.normal();
  std::vector<std::size_t> all;
  for (std::size_t k = 1; k <= 256; ++k) all.push_back(k);
  const auto reconstructed = reconstruct(x, all);
  for (std::size_t i = 0; i < x.size(); i += 13)
    EXPECT_NEAR(reconstructed[i], x[i], 1e-9);
}

TEST(Spectrum, PrincipalReconstructionOfTrafficLosesLittleEnergy) {
  // §5.1: the three principal components retain > 94 % of the energy of
  // the *aggregate* traffic. The comprehensive profile (the Table-1
  // mixture) is the canonical stand-in for the city aggregate.
  const auto aggregate =
      TrafficProfile::canonical(FunctionalRegion::kComprehensive).series();
  EXPECT_LT(energy_loss(aggregate, reconstruct_principal(aggregate)), 0.06);
}

TEST(Spectrum, PerPatternReconstructionLossIsBounded) {
  // Pure patterns are spikier than the aggregate (transport's sharp rush-
  // hour humps spread energy into higher daily harmonics), but the three
  // components still dominate.
  for (const auto r : all_regions()) {
    const auto series = TrafficProfile::canonical(r).series();
    const auto loss = energy_loss(series, reconstruct_principal(series));
    const double bound = r == FunctionalRegion::kTransport ? 0.30 : 0.10;
    EXPECT_LT(loss, bound) << region_name(r);
  }
}

TEST(Spectrum, TrafficSpectrumPeaksAtThePrincipalComponents) {
  // The aggregate-traffic DFT must have local peaks at k = 4, 28, 56
  // (Fig. 12a).
  const auto series =
      TrafficProfile::canonical(FunctionalRegion::kComprehensive).series();
  for (const std::size_t k :
       {kWeeklyComponent, kDailyComponent, kHalfDailyComponent}) {
    const std::size_t bins[] = {k - 1, k, k + 1};
    const auto x = dft_bins(series, bins);
    EXPECT_GT(std::abs(x[1]), std::abs(x[0])) << "k = " << k;
    EXPECT_GT(std::abs(x[1]), std::abs(x[2])) << "k = " << k;
  }
}

TEST(Spectrum, EnergyLossOfPerfectReconstructionIsZero) {
  const auto x = sinusoid(256, 5, 1.0, 0.0);
  EXPECT_NEAR(energy_loss(x, x), 0.0, 1e-12);
}

TEST(Spectrum, SignalEnergyIsSumOfSquares) {
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(signal_energy(x), 25.0);
}

TEST(Spectrum, EnergyLossValidatesInput) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {1.0};
  EXPECT_THROW(energy_loss(x, y), Error);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(energy_loss(zero, zero), Error);
}

TEST(Spectrum, OutOfRangeFrequencyThrows) {
  const auto x = sinusoid(64, 3, 1.0, 0.0);
  EXPECT_THROW(coefficient(x, 64), Error);
  const std::size_t keep[] = {64};
  EXPECT_THROW(reconstruct(x, keep), Error);
}

// Parameterized: amplitude/phase extraction across frequencies and phases.
class SpectrumRecovery
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(SpectrumRecovery, RecoversParametersOfPureTone) {
  const auto [k, phase] = GetParam();
  const auto x = sinusoid(4032, k, 2.2, phase);
  const Complex c = coefficient(x, k);
  EXPECT_NEAR(normalized_amplitude(c, x.size()), 2.2, 1e-8);
  EXPECT_NEAR(std::arg(c), phase, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    TonesAndPhases, SpectrumRecovery,
    ::testing::Combine(::testing::Values<std::size_t>(4, 28, 56, 84),
                       ::testing::Values(-2.0, -0.5, 0.0, 1.0, 3.0)));

}  // namespace
}  // namespace cellscope
