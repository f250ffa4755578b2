#include "pipeline/cleaner.h"

#include <gtest/gtest.h>

namespace cellscope {
namespace {

TrafficLog make_log(std::uint64_t user, std::uint32_t tower,
                    std::uint32_t start, std::uint64_t bytes,
                    std::uint32_t duration = 10) {
  TrafficLog log;
  log.user_id = user;
  log.tower_id = tower;
  log.start_minute = start;
  log.end_minute = start + duration;
  log.bytes = bytes;
  log.address = "District-1/Street-1/No-1";
  return log;
}

TEST(Cleaner, PassesCleanLogsThrough) {
  std::vector<TrafficLog> logs = {make_log(1, 10, 0, 100),
                                  make_log(2, 11, 5, 200)};
  CleanStats stats;
  const auto cleaned = clean_logs(logs, &stats);
  EXPECT_EQ(cleaned.size(), 2u);
  EXPECT_EQ(stats.duplicates_removed, 0u);
  EXPECT_EQ(stats.conflicts_resolved, 0u);
  EXPECT_EQ(stats.malformed_dropped, 0u);
  EXPECT_EQ(stats.input_records, 2u);
  EXPECT_EQ(stats.output_records, 2u);
}

TEST(Cleaner, RemovesExactDuplicates) {
  const auto log = make_log(1, 10, 0, 100);
  std::vector<TrafficLog> logs = {log, log, log};
  CleanStats stats;
  const auto cleaned = clean_logs(logs, &stats);
  EXPECT_EQ(cleaned.size(), 1u);
  EXPECT_EQ(stats.duplicates_removed, 2u);
}

TEST(Cleaner, ResolvesConflictsKeepingLargestBytes) {
  auto big = make_log(1, 10, 0, 500);
  auto small = make_log(1, 10, 0, 100);
  small.end_minute = 1;
  std::vector<TrafficLog> logs = {small, big};
  CleanStats stats;
  const auto cleaned = clean_logs(logs, &stats);
  ASSERT_EQ(cleaned.size(), 1u);
  EXPECT_EQ(cleaned[0].bytes, 500u);
  EXPECT_EQ(stats.conflicts_resolved, 1u);
}

TEST(Cleaner, DifferentUsersAreSeparateConnections) {
  std::vector<TrafficLog> logs = {make_log(1, 10, 0, 100),
                                  make_log(2, 10, 0, 100)};
  EXPECT_EQ(clean_logs(logs).size(), 2u);
}

TEST(Cleaner, DifferentStartTimesAreSeparateConnections) {
  std::vector<TrafficLog> logs = {make_log(1, 10, 0, 100),
                                  make_log(1, 10, 1, 100)};
  EXPECT_EQ(clean_logs(logs).size(), 2u);
}

TEST(Cleaner, DropsMalformedRecords) {
  auto inverted = make_log(1, 10, 100, 50);
  inverted.end_minute = 99;  // ends before it starts
  auto zero_bytes = make_log(2, 10, 0, 0);
  auto instant = make_log(3, 10, 5, 10);
  instant.end_minute = instant.start_minute;  // zero duration
  std::vector<TrafficLog> logs = {inverted, zero_bytes, instant,
                                  make_log(4, 10, 0, 7)};
  CleanStats stats;
  const auto cleaned = clean_logs(logs, &stats);
  EXPECT_EQ(cleaned.size(), 1u);
  EXPECT_EQ(stats.malformed_dropped, 3u);
}

TEST(Cleaner, OutputIsSortedByUserTowerStart) {
  std::vector<TrafficLog> logs = {make_log(5, 2, 30, 10),
                                  make_log(1, 9, 20, 10),
                                  make_log(1, 2, 10, 10)};
  const auto cleaned = clean_logs(logs);
  ASSERT_EQ(cleaned.size(), 3u);
  EXPECT_EQ(cleaned[0].user_id, 1u);
  EXPECT_EQ(cleaned[0].tower_id, 2u);
  EXPECT_EQ(cleaned[1].tower_id, 9u);
  EXPECT_EQ(cleaned[2].user_id, 5u);
}

TEST(Cleaner, IsIdempotent) {
  const auto log = make_log(1, 10, 0, 100);
  std::vector<TrafficLog> logs = {log, log, make_log(2, 3, 4, 5)};
  const auto once = clean_logs(logs);
  CleanStats stats;
  const auto twice = clean_logs(once, &stats);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(stats.duplicates_removed, 0u);
  EXPECT_EQ(stats.conflicts_resolved, 0u);
}

TEST(Cleaner, PreservesTotalBytesOfCleanConnections) {
  // Dedup must not change the byte total of unique connections.
  const auto a = make_log(1, 10, 0, 100);
  const auto b = make_log(2, 11, 5, 250);
  std::vector<TrafficLog> logs = {a, a, b};
  const auto cleaned = clean_logs(logs);
  std::uint64_t total = 0;
  for (const auto& log : cleaned) total += log.bytes;
  EXPECT_EQ(total, 350u);
}

TEST(Cleaner, EmptyInput) {
  CleanStats stats;
  EXPECT_TRUE(clean_logs({}, &stats).empty());
  EXPECT_EQ(stats.input_records, 0u);
  EXPECT_EQ(stats.output_records, 0u);
}

}  // namespace
}  // namespace cellscope
