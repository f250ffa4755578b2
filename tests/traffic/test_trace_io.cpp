#include "traffic/trace_codec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/quality.h"

namespace cellscope {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("cs_trace_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

std::vector<TrafficLog> sample_logs() {
  return {
      {1001, 42, 600, 615, 123456, "District-3/Street-7/No-9"},
      {1002, 43, 601, 700, 999, "District-1/Street-1/No-1"},
      {1001, 42, 620, 621, 1, ""},
  };
}

TEST_F(TraceIoTest, RoundTripsLogs) {
  write_trace(path(), sample_logs(), TraceCodec::kCsv);
  const auto logs = read_trace(path(), TraceCodec::kCsv);
  ASSERT_EQ(logs.size(), 3u);
  EXPECT_EQ(logs[0], sample_logs()[0]);
  EXPECT_EQ(logs[1], sample_logs()[1]);
  EXPECT_EQ(logs[2], sample_logs()[2]);
}

TEST_F(TraceIoTest, WritesHeaderRow) {
  write_trace(path(), {}, TraceCodec::kCsv);
  std::ifstream in(path());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "user_id,tower_id,start_minute,end_minute,bytes,address");
}

TEST_F(TraceIoTest, SkipsStructurallyBrokenRows) {
  {
    std::ofstream out(path());
    out << "user_id,tower_id,start_minute,end_minute,bytes,address\n";
    out << "1,2,3,4,5,addr\n";          // good
    out << "not,enough,columns\n";      // wrong arity
    out << "x,2,3,4,5,addr\n";          // non-numeric user id
    out << "9,8,6,7,5,addr2\n";         // good
  }
  const auto logs = read_trace(path(), TraceCodec::kCsv);
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_EQ(logs[0].user_id, 1u);
  EXPECT_EQ(logs[1].user_id, 9u);
}

TEST_F(TraceIoTest, SkipsOutOfRangeRowsAndCountsRejects) {
  auto& registry = obs::MetricsRegistry::instance();
  const auto rejected_before =
      registry.counter("cellscope.io.rejected_lines").value();
  {
    std::ofstream out(path());
    out << "user_id,tower_id,start_minute,end_minute,bytes,address\n";
    out << "1,2,3,4,5,addr\n";                    // good
    out << "1,2,9,4,5,addr\n";                    // end < start
    out << "1,4294967296,3,4,5,addr\n";           // tower overflows u32
    out << "1,2,4294967296,4294967297,5,addr\n";  // minutes overflow u32
    out << "18446744073709551616,2,3,4,5,addr\n";  // user overflows u64
    out << "1,2,3,4,18446744073709551616,addr\n";  // bytes overflow u64
    out << "2,3,10,10,0,addr\n";                  // good (zero-length)
  }
  const auto logs = read_trace(path(), TraceCodec::kCsv);
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_EQ(logs[1].duration_minutes(), 0u);
  EXPECT_EQ(registry.counter("cellscope.io.rejected_lines").value(),
            rejected_before + 5);
}

TEST_F(TraceIoTest, HighRejectRatioRecordsFailingVerdict) {
  auto& board = obs::QualityBoard::instance();
  board.clear();
  {
    std::ofstream out(path());
    out << "user_id,tower_id,start_minute,end_minute,bytes,address\n";
    out << "1,2,3,4,5,addr\n";      // good
    out << "garbage\n";             // rejected: 50% > the 1% bound
  }
  read_trace(path(), TraceCodec::kCsv);
  const auto verdicts = board.verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].check, "trace_reject_ratio");
  EXPECT_EQ(verdicts[0].stage, "io.read_trace");
  EXPECT_FALSE(verdicts[0].passed);
  EXPECT_DOUBLE_EQ(verdicts[0].value, 0.5);
  board.clear();
}

TEST_F(TraceIoTest, CleanFileRecordsPassingVerdict) {
  auto& board = obs::QualityBoard::instance();
  board.clear();
  write_trace(path(), sample_logs(), TraceCodec::kCsv);
  read_trace(path(), TraceCodec::kCsv);
  const auto verdicts = board.verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].passed);
  EXPECT_DOUBLE_EQ(verdicts[0].value, 0.0);
  board.clear();
}

TEST(TrafficLogSemantics, DurationFollowsHalfOpenConvention) {
  TrafficLog log;
  log.start_minute = 600;
  log.end_minute = 615;
  EXPECT_EQ(log.duration_minutes(), 15u);

  // Zero-length connections are valid and last zero minutes.
  log.end_minute = 600;
  EXPECT_EQ(log.duration_minutes(), 0u);
}

TEST(TrafficLogSemantics, CrossMidnightConnectionHasPlainDifference) {
  // 23:55 on day 0 to 00:10 on day 1 — minutes are absolute over the
  // grid, so no wrap-around logic applies.
  TrafficLog log;
  log.start_minute = 23 * 60 + 55;
  log.end_minute = 24 * 60 + 10;
  EXPECT_EQ(log.duration_minutes(), 15u);
}

TEST_F(TraceIoTest, EmptyFileYieldsNoLogs) {
  { std::ofstream out(path()); }
  EXPECT_TRUE(read_trace(path(), TraceCodec::kCsv).empty());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace("/no/such/file.csv", TraceCodec::kCsv), IoError);
}

}  // namespace
}  // namespace cellscope
