#include "obs/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"

namespace cellscope::obs {
namespace {

TEST(BuildInfo, FieldsArePopulated) {
  const auto info = build_info();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_FALSE(info.compiler.empty());
}

TEST(RunReport, JsonRoundTripsThroughParser) {
  RunReport report("unit_test");
  report.add_config("towers", std::uint64_t{42});
  report.add_config("ratio", 0.5);
  report.add_config("fold", true);
  report.add_config("label", "hello \"world\"");
  report.add_config_json("nested", "{\"k\":1}");
  report.add_config("towers", std::uint64_t{43});  // last write wins

  const auto v = JsonValue::parse(report.to_json());
  EXPECT_EQ(v.at("report").as_string(), "unit_test");
  EXPECT_DOUBLE_EQ(v.at("schema").as_number(), 1.0);
  EXPECT_GT(v.at("created_unix_s").as_number(), 0.0);

  const auto& build = v.at("build");
  EXPECT_FALSE(build.at("git_sha").as_string().empty());
  EXPECT_FALSE(build.at("compiler").as_string().empty());

  const auto& config = v.at("config");
  EXPECT_DOUBLE_EQ(config.at("towers").as_number(), 43.0);
  EXPECT_DOUBLE_EQ(config.at("ratio").as_number(), 0.5);
  EXPECT_TRUE(config.at("fold").as_bool());
  EXPECT_EQ(config.at("label").as_string(), "hello \"world\"");
  EXPECT_DOUBLE_EQ(config.at("nested").at("k").as_number(), 1.0);

  EXPECT_GT(v.at("wall_s").as_number(), 0.0);
  EXPECT_TRUE(v.at("stages").is_array());
  EXPECT_TRUE(v.at("metrics").is_object());
  const auto& quality = v.at("quality");
  EXPECT_TRUE(quality.at("verdicts").is_array());
  EXPECT_TRUE(quality.contains("ok"));
  EXPECT_TRUE(quality.contains("dropped"));
}

TEST(RunReport, CapturesSpansMetricsAndVerdicts) {
  StageTrace::instance().set_enabled(true);
  { StageSpan span("report.test_stage", "test", LogLevel::kDebug); }
  MetricsRegistry::instance()
      .histogram("report.test_hist", {1.0, 10.0})
      .observe(2.0);
  QualityBoard::instance().record("report.test_stage", "report_check",
                                  Severity::kInfo, {true, 1.0, ""});

  const auto v = JsonValue::parse(RunReport("capture").to_json());

  bool saw_stage = false;
  for (const auto& s : v.at("stages").as_array())
    if (s.at("name").as_string() == "report.test_stage") saw_stage = true;
  EXPECT_TRUE(saw_stage);

  const auto& hist =
      v.at("metrics").at("histograms").at("report.test_hist");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 1.0);
  EXPECT_TRUE(hist.contains("p50"));
  EXPECT_TRUE(hist.contains("p90"));
  EXPECT_TRUE(hist.contains("p99"));

  bool saw_verdict = false;
  for (const auto& verdict : v.at("quality").at("verdicts").as_array())
    if (verdict.at("check").as_string() == "report_check") saw_verdict = true;
  EXPECT_TRUE(saw_verdict);
}

TEST(RunReport, WriteProducesParseableFile) {
  const std::string path = ::testing::TempDir() + "cellscope_report.json";
  RunReport report("write_test");
  report.write(path);

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) text.append(buf, n);
  std::fclose(file);
  std::remove(path.c_str());

  const auto v = JsonValue::parse(text);
  EXPECT_EQ(v.at("report").as_string(), "write_test");
}

TEST(RunReport, WriteToBadPathThrowsIoError) {
  RunReport report("bad_path");
  EXPECT_THROW(report.write("/nonexistent_dir_zz/report.json"), IoError);
}

// The acceptance path: a full (small) pipeline run records every stage
// sentinel, in stage order, and a healthy synthetic city passes all of
// them.
TEST(RunReport, ExperimentRunYieldsPassingSentinels) {
  auto& board = QualityBoard::instance();
  board.clear();
  StageTrace::instance().set_enabled(true);

  ExperimentConfig config;
  config.n_towers = 200;
  config.seed = 7;
  const auto e = Experiment::run(config);

  using Row = std::tuple<std::string, std::string, Severity>;
  const std::vector<Row> expected = {
      {"pipeline.vectorize", "matrix_finite", Severity::kFail},
      {"pipeline.zscore", "zscore_normalized", Severity::kFail},
      {"pipeline.cluster_tune", "cluster_min_population", Severity::kWarn},
      {"pipeline.cluster_tune", "dbi_sane", Severity::kFail},
      {"pipeline.cluster_tune", "dft_energy_principal", Severity::kWarn},
  };
  std::vector<Row> recorded;
  for (const auto& verdict : board.verdicts())
    recorded.emplace_back(verdict.stage, verdict.check, verdict.severity);
  EXPECT_EQ(recorded, expected);
  EXPECT_GE(board.passed() + board.warned() + board.failed(), 5u);
  EXPECT_EQ(board.failed(), 0u) << board.verdicts_json();
  EXPECT_TRUE(board.ok());
  EXPECT_GE(e.n_clusters(), 2u);

  const auto v = JsonValue::parse(RunReport("experiment").to_json());
  EXPECT_GE(v.at("quality").at("verdicts").as_array().size(), 5u);
  EXPECT_TRUE(v.at("quality").at("ok").as_bool());
  board.clear();
}

}  // namespace
}  // namespace cellscope::obs
