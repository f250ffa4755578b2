#include "obs/quality.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "support/oracles.h"

namespace cellscope::obs {
namespace {

class QualityBoardTest : public ::testing::Test {
 protected:
  void SetUp() override { QualityBoard::instance().clear(); }
  void TearDown() override { QualityBoard::instance().clear(); }
};

// --- invariant helpers: one passing and one violated fixture each -----

TEST(QualityChecks, FiniteRowsPassAndFail) {
  const std::vector<std::vector<double>> clean = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_TRUE(check_finite_rows(clean).passed);
  EXPECT_DOUBLE_EQ(check_finite_rows(clean).value, 0.0);

  auto dirty = clean;
  dirty[1][0] = std::numeric_limits<double>::quiet_NaN();
  dirty[1][1] = std::numeric_limits<double>::infinity();
  const auto r = check_finite_rows(dirty);
  EXPECT_FALSE(r.passed);
  EXPECT_DOUBLE_EQ(r.value, 2.0);  // counts every non-finite element
  EXPECT_NE(r.detail.find("row 1"), std::string::npos);

  // The same verdict from per-row counts, as a blocked pass records it.
  const std::vector<std::size_t> per_row = {0, 2};
  const auto counted = check_finite_counts(per_row);
  EXPECT_EQ(counted.passed, r.passed);
  EXPECT_EQ(counted.value, r.value);
  EXPECT_EQ(counted.detail, r.detail);
  EXPECT_EQ(non_finite_count(dirty[1]), 2u);
}

TEST(QualityChecks, ZscoreRowsPassAndFail) {
  // mean 0, population sd 1.
  const std::vector<std::vector<double>> normalized = {{-1.0, 1.0, -1.0, 1.0}};
  EXPECT_TRUE(check_zscore_rows(normalized).passed);

  const std::vector<std::vector<double>> shifted = {{9.0, 11.0, 9.0, 11.0}};
  const auto r = check_zscore_rows(shifted);
  EXPECT_FALSE(r.passed);
  EXPECT_GT(r.value, 1.0);  // worst deviation: |mean| = 10

  // Constant rows z-score to all zeros; sd bound must not flag them.
  const std::vector<std::vector<double>> constant = {{0.0, 0.0, 0.0}};
  EXPECT_TRUE(check_zscore_rows(constant).passed);
}

TEST(QualityChecks, ZscoreRowDeviationsReduceToTheRowsCheck) {
  // The per-row deviation plus its reduction is check_zscore_rows.
  const auto split = [](const std::vector<std::vector<double>>& rows) {
    std::vector<double> deviations;
    for (const auto& row : rows)
      deviations.push_back(zscore_row_deviation(row));
    return check_zscore_worst(worst_deviation(deviations));
  };
  const std::vector<std::vector<std::vector<double>>> cases = {
      {{-1.0, 1.0, -1.0, 1.0}},
      {{9.0, 11.0, 9.0, 11.0}},
      {{0.0, 0.0, 0.0}},
      // Tied worst rows: the first one is reported.
      {{-1.0, 1.0}, {0.0, 4.0}, {0.0, 4.0}, {}, {0.0, 0.0}},
      {{1.0, std::numeric_limits<double>::quiet_NaN()}, {3.0, 5.0}},
      {}};
  for (const auto& rows : cases) {
    const auto want = check_zscore_rows(rows);
    const auto got = split(rows);
    EXPECT_EQ(got.passed, want.passed);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.detail, want.detail);
  }
  EXPECT_EQ(worst_deviation(std::vector<double>{0.5, 2.0, 2.0}).row, 1u);
  EXPECT_EQ(zscore_row_deviation(std::vector<double>{0.0, 0.0}), 0.0);
  EXPECT_EQ(zscore_row_deviation(std::vector<double>{9.0, 11.0}), 10.0);
  EXPECT_NE(split({{0.0, 4.0}, {0.0, 4.0}}).detail.find("(row 0)"),
            std::string::npos);
}

TEST(QualityChecks, MinPopulationPassAndFail) {
  const std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  EXPECT_TRUE(check_min_population(labels, 3).passed);
  const auto r = check_min_population(labels, 4);
  EXPECT_FALSE(r.passed);
  EXPECT_DOUBLE_EQ(r.value, 3.0);  // smallest cluster population
  EXPECT_FALSE(check_min_population({}, 1).passed);  // no clusters at all
}

TEST(QualityChecks, DbiPassAndFail) {
  EXPECT_TRUE(check_dbi(0.47).passed);
  EXPECT_FALSE(check_dbi(0.0).passed);
  EXPECT_FALSE(check_dbi(-1.0).passed);
  EXPECT_FALSE(check_dbi(std::numeric_limits<double>::quiet_NaN()).passed);
  EXPECT_FALSE(check_dbi(std::numeric_limits<double>::infinity()).passed);
}

TEST(QualityChecks, EnergyFractionPassAndFail) {
  // The paper's §5.1 claim: <6% loss -> >=94% retained.
  EXPECT_TRUE(check_energy_fraction(0.95).passed);
  EXPECT_TRUE(check_energy_fraction(0.94).passed);
  const auto r = check_energy_fraction(0.90);
  EXPECT_FALSE(r.passed);
  EXPECT_DOUBLE_EQ(r.value, 0.90);
}

TEST(QualityChecks, SimplexWeightsPassAndFail) {
  const std::vector<double> on_simplex = {0.2, 0.3, 0.5};
  EXPECT_TRUE(check_simplex_weights(on_simplex).passed);

  const std::vector<double> bad_sum = {0.2, 0.3, 0.4};
  EXPECT_FALSE(check_simplex_weights(bad_sum).passed);

  const std::vector<double> negative = {-0.1, 0.6, 0.5};
  const auto r = check_simplex_weights(negative);
  EXPECT_FALSE(r.passed);
  EXPECT_GT(r.value, 0.05);  // worst violation ~0.1
}

TEST(QualityChecks, RejectRatioPassAndFail) {
  EXPECT_TRUE(check_reject_ratio(0, 1000).passed);
  EXPECT_TRUE(check_reject_ratio(10, 1000).passed);  // exactly 1%
  const auto r = check_reject_ratio(11, 1000);
  EXPECT_FALSE(r.passed);
  EXPECT_DOUBLE_EQ(r.value, 0.011);

  // Custom bound and the trivial-pass case of an empty input.
  EXPECT_FALSE(check_reject_ratio(2, 10, 0.1).passed);
  EXPECT_TRUE(check_reject_ratio(0, 0).passed);
  EXPECT_DOUBLE_EQ(check_reject_ratio(0, 0).value, 0.0);
}

// --- board mechanics --------------------------------------------------

TEST_F(QualityBoardTest, RecordsVerdictsInOrder) {
  auto& board = QualityBoard::instance();
  board.record("stage.a", "always_pass", Severity::kFail, {true, 1.0, "ok"});
  board.record("stage.a", "always_fail", Severity::kWarn, {false, 2.0, "bad"});

  EXPECT_EQ(board.passed(), 1u);
  EXPECT_EQ(board.warned(), 1u);  // kWarn violation escalates to warned
  EXPECT_EQ(board.failed(), 0u);
  EXPECT_EQ(board.dropped(), 0u);
  EXPECT_TRUE(board.ok());

  const auto verdicts = board.verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].check, "always_pass");
  EXPECT_TRUE(verdicts[0].passed);
  EXPECT_EQ(verdicts[1].check, "always_fail");
  EXPECT_FALSE(verdicts[1].passed);
  EXPECT_EQ(verdicts[1].stage, "stage.a");
  EXPECT_EQ(verdicts[1].severity, Severity::kWarn);
  EXPECT_DOUBLE_EQ(verdicts[1].value, 2.0);
  EXPECT_EQ(verdicts[1].detail, "bad");
}

TEST_F(QualityBoardTest, FailSeverityViolationFlipsOk) {
  auto& board = QualityBoard::instance();
  board.record("stage.c", "hard_fail", Severity::kFail,
               {false, 0.0, "broken"});
  EXPECT_EQ(board.failed(), 1u);
  EXPECT_FALSE(board.ok());
}

TEST_F(QualityBoardTest, CountersTrackVerdicts) {
  auto& registry = MetricsRegistry::instance();
  const auto passed_before =
      registry.counter("cellscope.quality.checks_passed").value();
  const auto failed_before =
      registry.counter("cellscope.quality.checks_failed").value();

  auto& board = QualityBoard::instance();
  board.record("stage.e", "p", Severity::kFail, {true, 0.0, ""});
  board.record("stage.e", "f", Severity::kFail, {false, 0.0, ""});

  EXPECT_EQ(registry.counter("cellscope.quality.checks_passed").value(),
            passed_before + 1);
  EXPECT_EQ(registry.counter("cellscope.quality.checks_failed").value(),
            failed_before + 1);
}

// A long-running daemon records verdicts every round: the stored log
// keeps the newest kMaxStoredVerdicts and counts what it evicted, while
// the tallies cover every verdict.
TEST_F(QualityBoardTest, KeepsTheNewestVerdictsAndCountsTheDropped) {
  static_assert(QualityBoard::kMaxStoredVerdicts == 1024);
  auto& board = QualityBoard::instance();
  for (int i = 1; i <= 1030; ++i)
    board.record("stage.g", "check_" + std::to_string(i), Severity::kFail,
                 {true, static_cast<double>(i), ""});

  const auto verdicts = board.verdicts();
  ASSERT_EQ(verdicts.size(), 1024u);
  EXPECT_EQ(verdicts.front().check, "check_7");
  EXPECT_EQ(verdicts.back().check, "check_1030");
  EXPECT_EQ(board.dropped(), 6u);
  EXPECT_EQ(board.passed(), 1030u);

  board.clear();
  EXPECT_EQ(board.dropped(), 0u);
  EXPECT_TRUE(board.verdicts().empty());
}

TEST_F(QualityBoardTest, VerdictsJsonIsWellFormedArray) {
  auto& board = QualityBoard::instance();
  board.record("stage.f", "check_a", Severity::kWarn,
               {false, 1.5, "detail \"quoted\""});
  const auto json = board.verdicts_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"check\":\"check_a\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"warn\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaped
}

TEST(QualitySeverity, Names) {
  EXPECT_EQ(severity_name(Severity::kInfo), "info");
  EXPECT_EQ(severity_name(Severity::kWarn), "warn");
  EXPECT_EQ(severity_name(Severity::kFail), "fail");
}

}  // namespace
}  // namespace cellscope::obs
