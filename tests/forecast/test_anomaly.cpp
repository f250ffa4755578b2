#include "forecast/anomaly.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/time_grid.h"
#include "support/oracles.h"

namespace cellscope {
namespace {

/// Weekly-periodic series with mild noise.
std::vector<double> periodic_series(std::size_t weeks, double noise,
                                    std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(weeks * TimeGrid::kSlotsPerWeek);
  for (std::size_t s = 0; s < weeks * TimeGrid::kSlotsPerWeek; ++s) {
    const double base =
        100.0 +
        50.0 * std::sin(2.0 * M_PI *
                        static_cast<double>(s % TimeGrid::kSlotsPerDay) /
                        TimeGrid::kSlotsPerDay);
    out.push_back(base * (1.0 + noise * rng.normal()));
  }
  return out;
}

TEST(AnomalyDetector, QuietSeriesHasNoAnomalies) {
  const auto history = periodic_series(3, 0.05);
  const TrafficAnomalyDetector detector(history);
  const auto week = periodic_series(1, 0.05, 99);
  EXPECT_TRUE(detector.detect(week).empty());
}

TEST(AnomalyDetector, DetectsAnInjectedSurge) {
  const auto history = periodic_series(3, 0.05);
  const TrafficAnomalyDetector detector(history);
  auto week = periodic_series(1, 0.05, 7);
  // A flash crowd: 3x traffic for two hours starting Wednesday 20:00.
  const std::size_t begin = TimeGrid::slot_at(2, 20, 0);
  for (std::size_t s = begin; s < begin + 12; ++s) week[s] *= 3.0;

  const auto anomalies = detector.detect(week);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_TRUE(anomalies[0].is_surge);
  EXPECT_GE(anomalies[0].begin_slot + 1, begin);  // within one slot
  EXPECT_LE(anomalies[0].begin_slot, begin + 1);
  EXPECT_NEAR(static_cast<double>(anomalies[0].end_slot),
              static_cast<double>(begin + 12), 3.0);
  EXPECT_GT(anomalies[0].peak_score, 4.0);
}

TEST(AnomalyDetector, DetectsAnOutage) {
  const auto history = periodic_series(3, 0.05);
  const TrafficAnomalyDetector detector(history);
  auto week = periodic_series(1, 0.05, 8);
  const std::size_t begin = TimeGrid::slot_at(1, 10, 0);
  for (std::size_t s = begin; s < begin + 18; ++s) week[s] = 0.0;

  const auto anomalies = detector.detect(week);
  ASSERT_GE(anomalies.size(), 1u);
  EXPECT_FALSE(anomalies[0].is_surge);
  EXPECT_LT(anomalies[0].peak_score, -4.0);
}

TEST(AnomalyDetector, GapToleranceMergesOneEvent) {
  const auto history = periodic_series(3, 0.02);
  const TrafficAnomalyDetector detector(history);
  auto week = periodic_series(1, 0.02, 9);
  const std::size_t begin = 300;
  for (std::size_t s = begin; s < begin + 20; ++s) {
    if (s == begin + 9 || s == begin + 10) continue;  // brief dip inside
    week[s] *= 3.0;
  }
  const auto anomalies = detector.detect(week);
  EXPECT_EQ(anomalies.size(), 1u);
}

TEST(AnomalyDetector, ZeroGapToleranceSplitsEvents) {
  const auto history = periodic_series(3, 0.02);
  const TrafficAnomalyDetector detector(history);
  auto week = periodic_series(1, 0.02, 9);
  const std::size_t begin = 300;
  for (std::size_t s = begin; s < begin + 20; ++s) {
    if (s >= begin + 8 && s < begin + 12) continue;  // 4-slot gap
    week[s] *= 3.0;
  }
  EXPECT_EQ(detector.detect(week).size(), 2u);
}

TEST(AnomalyDetector, ScoresContinueThePhase) {
  // History of 2.5 weeks: scoring must pick up at the right slot-of-week.
  auto history = periodic_series(3, 0.0);
  history.resize(2 * TimeGrid::kSlotsPerWeek + TimeGrid::kSlotsPerDay);
  const TrafficAnomalyDetector detector(history);
  // A continuation with the correct phase scores ~0 everywhere.
  std::vector<double> next;
  const auto full = periodic_series(4, 0.0);
  next.assign(full.begin() + static_cast<long>(history.size()),
              full.begin() + static_cast<long>(history.size()) + 500);
  for (const double z : detector.score(next)) EXPECT_LT(std::fabs(z), 0.5);
}

TEST(AnomalyDetector, SigmaFloorPreventsFalseAlarmsOnQuietSlots) {
  // Noise-free history -> raw sigma 0; the relative floor must keep a
  // small fluctuation from exploding the score.
  const auto history = periodic_series(2, 0.0);
  const TrafficAnomalyDetector detector(history);
  auto week = periodic_series(1, 0.0, 5);
  week[100] *= 1.02;  // +2%
  EXPECT_TRUE(detector.detect(week).empty());
}

TEST(AnomalyDetector, ValidatesInput) {
  EXPECT_THROW(TrafficAnomalyDetector(periodic_series(1, 0.1)), Error);
}

// Property sweep: detection across surge magnitudes.
class SurgeMagnitude : public ::testing::TestWithParam<double> {};

TEST_P(SurgeMagnitude, BigSurgesDetectedSmallOnesIgnored) {
  const double factor = GetParam();
  const auto history = periodic_series(3, 0.05);
  const TrafficAnomalyDetector detector(history);
  auto week = periodic_series(1, 0.05, 11);
  for (std::size_t s = 400; s < 415; ++s) week[s] *= factor;
  const auto anomalies = detector.detect(week);
  if (factor >= 2.0) {
    EXPECT_FALSE(anomalies.empty()) << "factor " << factor;
  } else if (factor <= 1.1) {
    EXPECT_TRUE(anomalies.empty()) << "factor " << factor;
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, SurgeMagnitude,
                         ::testing::Values(1.0, 1.05, 1.1, 2.0, 3.0, 5.0));

TEST(AnomalyDetector, PinsTheScoresAndIntervalsOfOneWeek) {
  // A surge, an outage and a surge with a 2-slot dip in one noisy week:
  // FNV-1a 64 over the scores and over each interval's fields.
  const auto history = periodic_series(3, 0.05);
  const TrafficAnomalyDetector detector(history);
  auto week = periodic_series(1, 0.05, 7);
  const std::size_t surge = TimeGrid::slot_at(2, 20, 0);
  for (std::size_t s = surge; s < surge + 12; ++s) week[s] *= 3.0;
  const std::size_t outage = TimeGrid::slot_at(1, 10, 0);
  for (std::size_t s = outage; s < outage + 18; ++s) week[s] = 0.0;
  for (std::size_t s = 300; s < 320; ++s)
    if (s != 309 && s != 310) week[s] *= 3.0;
  const auto scores = detector.score(week);
  EXPECT_EQ(fnv1a(scores.data(), scores.size() * sizeof(double)),
            0xc7bf944138624327ull);
  const auto anomalies = detector.detect(week);
  std::uint64_t hash = kFnv1aBasis;
  for (const auto& a : anomalies) {
    hash = fnv1a(&a.begin_slot, sizeof a.begin_slot, hash);
    hash = fnv1a(&a.end_slot, sizeof a.end_slot, hash);
    hash = fnv1a(&a.peak_score, sizeof a.peak_score, hash);
    hash = fnv1a(&a.is_surge, sizeof a.is_surge, hash);
  }
  EXPECT_EQ(anomalies.size(), 3u);
  EXPECT_EQ(hash, 0x3ed9e99f33810736ull);
}

}  // namespace
}  // namespace cellscope
