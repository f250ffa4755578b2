#include "pipeline/traffic_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"

namespace cellscope {
namespace {

TrafficMatrix make_matrix(std::size_t n, std::uint64_t seed = 3) {
  Rng rng(seed);
  TrafficMatrix m;
  for (std::size_t i = 0; i < n; ++i) {
    m.tower_ids.push_back(static_cast<std::uint32_t>(i * 10));
    std::vector<double> row(TimeGrid::kSlots);
    for (auto& v : row) v = rng.uniform(0.0, 100.0);
    m.rows.push_back(std::move(row));
  }
  return m;
}

TEST(TrafficMatrix, RowOfFindsTowers) {
  const auto m = make_matrix(5);
  EXPECT_EQ(m.row_of(0), 0u);
  EXPECT_EQ(m.row_of(40), 4u);
  EXPECT_THROW(m.row_of(7), InvalidArgument);
}

TEST(TrafficMatrix, CheckAcceptsValidMatrix) {
  const auto m = make_matrix(3);
  EXPECT_NO_THROW(m.check());
}

TEST(TrafficMatrix, CheckRejectsDuplicateIds) {
  auto m = make_matrix(3);
  m.tower_ids[2] = m.tower_ids[0];
  EXPECT_THROW(m.check(), Error);
}

TEST(TrafficMatrix, CheckRejectsWrongRowLength) {
  auto m = make_matrix(2);
  m.rows[1].pop_back();
  EXPECT_THROW(m.check(), Error);
}

TEST(TrafficMatrix, CheckRejectsMismatchedSizes) {
  auto m = make_matrix(2);
  m.tower_ids.pop_back();
  EXPECT_THROW(m.check(), Error);
}

TEST(ZscoreRows, EveryRowIsNormalized) {
  const auto m = make_matrix(4);
  const auto z = zscore_rows(m);
  ASSERT_EQ(z.size(), 4u);
  for (const auto& row : z) {
    EXPECT_NEAR(mean(row), 0.0, 1e-9);
    EXPECT_NEAR(stddev(row), 1.0, 1e-9);
  }
}

TEST(FoldToWeek, AveragesTheFourWeeks) {
  std::vector<std::vector<double>> rows(1);
  rows[0].assign(TimeGrid::kSlots, 0.0);
  // Slot s of week w carries value w; the fold must average to 1.5.
  for (std::size_t s = 0; s < TimeGrid::kSlots; ++s)
    rows[0][s] = static_cast<double>(s / TimeGrid::kSlotsPerWeek);
  const auto folded = fold_to_week(rows);
  ASSERT_EQ(folded[0].size(), static_cast<std::size_t>(TimeGrid::kSlotsPerWeek));
  for (const double v : folded[0]) EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(FoldToWeek, PreservesWeeklyPeriodicSignalsExactly) {
  std::vector<std::vector<double>> rows(1);
  rows[0].resize(TimeGrid::kSlots);
  for (std::size_t s = 0; s < TimeGrid::kSlots; ++s)
    rows[0][s] = std::sin(2.0 * M_PI *
                          static_cast<double>(s % TimeGrid::kSlotsPerWeek) /
                          TimeGrid::kSlotsPerWeek);
  const auto folded = fold_to_week(rows);
  for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s)
    EXPECT_NEAR(folded[0][s], rows[0][s], 1e-12);
}

TEST(FoldWeek, MatchesModuloAccumulationOracle) {
  // The oracle is the loop the fold replaced: week[s % 1008] += row[s]
  // from 0.0, then one division — ascending s visits weeks 0, 1, 2, 3 of
  // each slot in order. Slots holding 1e16, 1 and -1e16 in different
  // weeks round differently when the weeks are summed in another order
  // (reversed, say), and NaN/±inf slots must come out with the same bits.
  // Compared bitwise: NaN != NaN.
  constexpr std::size_t kPeriod = TimeGrid::kSlotsPerWeek;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kOrderProbes[][TimeGrid::kWeeks] = {
      {1e16, 1.0, -1e16, 1.0},  {1.0, 1e16, 1.0, -1e16},
      {1e16, -1e16, 1.0, 1.0},  {-1e16, 1.0, 1e16, 1.0},
      {1.0, 1.0, 1e16, -1e16},  {1e16, 1.0, 1.0, -1e16},
  };
  Rng rng(24);
  std::vector<double> row(TimeGrid::kSlots);
  for (auto& v : row) v = rng.normal();
  for (std::size_t j = 0; j < kPeriod; j += 7) {
    const auto& probe = kOrderProbes[(j / 7) % std::size(kOrderProbes)];
    for (std::size_t w = 0; w < TimeGrid::kWeeks; ++w)
      row[w * kPeriod + j] = probe[w];
  }
  row[3] = kNan;
  row[kPeriod + 5] = kInf;
  row[2 * kPeriod + 5] = -kInf;  // inf + -inf in one slot: NaN
  row[3 * kPeriod + 11] = -kInf;

  std::vector<double> want(kPeriod, 0.0);
  for (std::size_t s = 0; s < row.size(); ++s) want[s % kPeriod] += row[s];
  for (auto& v : want) v /= static_cast<double>(TimeGrid::kWeeks);
  // The probes must actually tell week orders apart.
  ASSERT_EQ(want[0], 0.25);

  const auto bits_equal = [&](const std::vector<double>& got) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), kPeriod * sizeof(double)) == 0;
  };
  EXPECT_TRUE(bits_equal(fold_week(row)));
  EXPECT_TRUE(bits_equal(fold_to_week({row, row}).back()));
}

TEST(FoldToWeek, RejectsWrongLength) {
  std::vector<std::vector<double>> rows = {{1.0, 2.0}};
  EXPECT_THROW(fold_to_week(rows), Error);
}

TEST(AggregateSeries, SumsAllRows) {
  auto m = make_matrix(3);
  const auto total = aggregate_series(m);
  for (std::size_t s = 0; s < 10; ++s)
    EXPECT_NEAR(total[s], m.rows[0][s] + m.rows[1][s] + m.rows[2][s], 1e-9);
}

TEST(AggregateSeries, SubsetSelectsRows) {
  auto m = make_matrix(3);
  const auto partial = aggregate_series(m, {0, 2});
  for (std::size_t s = 0; s < 10; ++s)
    EXPECT_NEAR(partial[s], m.rows[0][s] + m.rows[2][s], 1e-9);
}

TEST(AggregateSeries, EmptySubsetIsZero) {
  auto m = make_matrix(2);
  const auto empty = aggregate_series(m, {});
  for (const double v : empty) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AggregateSeries, OutOfRangeRowThrows) {
  auto m = make_matrix(2);
  EXPECT_THROW(aggregate_series(m, {5}), Error);
}

}  // namespace
}  // namespace cellscope
