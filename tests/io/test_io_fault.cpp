// Failpoint-driven fault injection for the trace I/O layer: read/write
// failures surface as IoError through every codec, and an injected CRC
// mismatch (trace.chunk.corrupt) follows the skip-and-count contract —
// the remaining chunks still decode, nothing crashes. Compiled into the
// io suite only when CELLSCOPE_FAILPOINTS is ON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/columnar.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"

namespace cellscope {
namespace {

class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::disarm_all();
    dir_ = std::filesystem::temp_directory_path() /
           ("cs_io_fault_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fp::disarm_all();
    std::filesystem::remove_all(dir_);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::vector<TrafficLog> sample_logs(std::size_t n) {
    std::vector<TrafficLog> logs;
    logs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      logs.push_back({i, static_cast<std::uint32_t>(i % 16),
                      static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(i + 5), 1000 + i, ""});
    return logs;
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(IoFaultTest, ReadFailpointSurfacesAsIoErrorOnEveryBackend) {
  const auto logs = sample_logs(100);
  write_trace(path("t.csv"), logs);
  write_trace_bin(path("t.ctb"), logs);

  for (const auto codec :
       {TraceCodec::kCsv, TraceCodec::kBinary, TraceCodec::kMmap}) {
    const std::string& file =
        codec == TraceCodec::kCsv ? path("t.csv") : path("t.ctb");
    fp::arm("trace.read.fail", 1);
    EXPECT_THROW(open_trace_reader(file, codec), IoError);
    // One charge: the retry goes clean.
    EXPECT_EQ(read_trace(file, codec), logs);
  }
  EXPECT_EQ(fp::fire_count("trace.read.fail"), 3u);
}

TEST_F(IoFaultTest, WriteFailpointSurfacesAsIoError) {
  const auto logs = sample_logs(50);
  fp::arm("trace.write.fail", 1);
  EXPECT_THROW(open_trace_writer(path("w.ctb")), IoError);
  fp::arm("trace.write.fail", 1);
  EXPECT_THROW(open_trace_writer(path("w.csv")), IoError);

  // Merge shares the write site.
  write_trace_bin(path("a.ctb"), logs);
  fp::arm("trace.write.fail", 1);
  EXPECT_THROW(merge_trace_bin({path("a.ctb")}, path("m.ctb")), IoError);

  // Disarmed, everything works again.
  write_trace(path("w.ctb"), logs);
  EXPECT_EQ(read_trace(path("w.ctb")), logs);
}

TEST_F(IoFaultTest, InjectedCrcMismatchIsSkippedAndCounted) {
  const auto logs = sample_logs(256);
  write_trace_bin(path("t.ctb"), logs, 64);  // 4 chunks

  const auto corrupt_before = columnar::io_metrics().chunks_corrupt->value();
  fp::arm("trace.chunk.corrupt", 2);  // first two chunks fail their CRC
  const auto decoded = read_trace(path("t.ctb"), TraceCodec::kMmap);
  EXPECT_EQ(fp::fire_count("trace.chunk.corrupt"), 2u);
  EXPECT_EQ(decoded.size(), logs.size() - 128);
  EXPECT_EQ(columnar::io_metrics().chunks_corrupt->value(),
            corrupt_before + 2);

  const std::vector<TrafficLog> tail(logs.begin() + 128, logs.end());
  EXPECT_EQ(decoded, tail);
}

/// The one trace_chunk_corrupt_ratio verdict on the board failed at
/// `ratio`.
void expect_corrupt_chunk_verdict(double ratio) {
  std::size_t found = 0;
  for (const auto& v : obs::QualityBoard::instance().verdicts()) {
    if (v.check != "trace_chunk_corrupt_ratio") continue;
    ++found;
    EXPECT_EQ(v.severity, obs::Severity::kFail);
    EXPECT_FALSE(v.passed);
    EXPECT_DOUBLE_EQ(v.value, ratio);
  }
  EXPECT_EQ(found, 1u);
}

TEST_F(IoFaultTest, ReplayRidesThroughCorruptChunks) {
  const auto logs = sample_logs(4096);
  write_trace_bin(path("t.ctb"), logs, 256);  // 16 chunks

  ThreadPool pool(2);
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  auto& board = obs::QualityBoard::instance();
  board.clear();
  fp::arm("trace.chunk.corrupt", 3);
  const auto stats = replay_trace_file(path("t.ctb"), ingestor, pool);
  EXPECT_EQ(fp::fire_count("trace.chunk.corrupt"), 3u);
  EXPECT_EQ(stats.records, logs.size() - 3 * 256);
  EXPECT_EQ(stats.ingest.accepted, logs.size() - 3 * 256);
  expect_corrupt_chunk_verdict(3.0 / 16.0);

  // The offer branch skips and counts the same way as the bulk default.
  StreamIngestor offered(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  board.clear();
  fp::arm("trace.chunk.corrupt", 3);
  const auto offer_stats = replay_trace_file(
      path("t.ctb"), offered, pool, FileReplayOptions{.bulk = false});
  EXPECT_EQ(offer_stats.records, logs.size() - 3 * 256);
  expect_corrupt_chunk_verdict(3.0 / 16.0);
  board.clear();

  // The surviving state equals replaying the 13 intact chunks directly.
  StreamIngestor reference(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  const std::vector<TrafficLog> tail(logs.begin() + 3 * 256, logs.end());
  replay_trace(tail, reference, pool);
  auto ids = ingestor.tower_ids();
  auto ref_ids = reference.tower_ids();
  std::sort(ids.begin(), ids.end());
  std::sort(ref_ids.begin(), ref_ids.end());
  ASSERT_EQ(ids, ref_ids);
  for (const auto id : ids)
    EXPECT_EQ(ingestor.window_copy(id).raw_vector(),
              reference.window_copy(id).raw_vector());
}

}  // namespace
}  // namespace cellscope
