// The pluggable codec layer (traffic/trace_codec.h): extension routing,
// csv/columnar read identity, csv -> bin -> csv byte identity, and a
// systematic corruption sweep over the binary format — every bit flip
// and truncation must end in IoError or skip-and-count, never a crash.
#include "traffic/trace_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "traffic/columnar.h"
#include "traffic/trace_mmap.h"

namespace cellscope {
namespace {

class TraceCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cs_codec_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

std::vector<TrafficLog> sample_logs(std::size_t n) {
  Rng rng(11);
  std::vector<TrafficLog> logs;
  logs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TrafficLog log;
    log.user_id = static_cast<std::uint64_t>(rng.uniform_int(0, 99999));
    log.tower_id = static_cast<std::uint32_t>(rng.uniform_int(0, 199));
    log.start_minute = static_cast<std::uint32_t>(rng.uniform_int(0, 40000));
    log.end_minute =
        log.start_minute + static_cast<std::uint32_t>(rng.uniform_int(0, 60));
    log.bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    log.address = i % 4 == 0 ? "Plaza Mayor, 4" : "";
    logs.push_back(std::move(log));
  }
  return logs;
}

std::string slurp(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(TraceCodecTest, RoutesByExtension) {
  EXPECT_EQ(trace_codec_for_path("trace.csv"), TraceCodec::kCsv);
  EXPECT_EQ(trace_codec_for_path("/data/day01.ctb"), TraceCodec::kMmap);
  EXPECT_EQ(trace_codec_for_path("day01.bin"), TraceCodec::kMmap);
  EXPECT_EQ(trace_codec_for_path("noext"), TraceCodec::kCsv);
  EXPECT_EQ(trace_codec_for_path("weird.tsv"), TraceCodec::kCsv);
}

TEST_F(TraceCodecTest, AllThreeBackendsReadIdenticalRecords) {
  const auto logs = sample_logs(4000);
  write_trace(path("t.csv"), logs);
  write_trace(path("t.ctb"), logs, TraceCodec::kBinary);

  EXPECT_EQ(read_trace(path("t.csv"), TraceCodec::kCsv), logs);
  // kBinary and kMmap both name the one mapped columnar reader.
  EXPECT_EQ(read_trace(path("t.ctb"), TraceCodec::kBinary), logs);
  EXPECT_EQ(read_trace(path("t.ctb"), TraceCodec::kMmap), logs);
}

TEST_F(TraceCodecTest, StreamingReadersBatchAndReportCounts) {
  const auto logs = sample_logs(1000);
  write_trace(path("t.ctb"), logs, TraceCodec::kBinary);

  auto reader = open_trace_reader(path("t.ctb"), TraceCodec::kMmap);
  ASSERT_TRUE(reader->record_count().has_value());
  EXPECT_EQ(*reader->record_count(), logs.size());

  std::vector<TrafficLog> all, batch;
  while (reader->next_batch(batch))
    all.insert(all.end(), batch.begin(), batch.end());
  EXPECT_EQ(all, logs);
  EXPECT_FALSE(reader->next_batch(batch));  // stays exhausted

  write_trace(path("t.csv"), logs);
  auto csv_reader = open_trace_reader(path("t.csv"), TraceCodec::kCsv, 128);
  EXPECT_FALSE(csv_reader->record_count().has_value());
  all.clear();
  std::size_t batches = 0;
  while (csv_reader->next_batch(batch)) {
    EXPECT_LE(batch.size(), 128u);
    ++batches;
    all.insert(all.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(all, logs);
  EXPECT_GE(batches, logs.size() / 128);
}

TEST_F(TraceCodecTest, CsvToBinToCsvIsByteIdentical) {
  const auto logs = sample_logs(2500);
  write_trace(path("a.csv"), logs);
  write_trace(path("a.ctb"), read_trace(path("a.csv")), TraceCodec::kBinary);
  write_trace(path("b.csv"), read_trace(path("a.ctb")));
  EXPECT_EQ(slurp(path("a.csv")), slurp(path("b.csv")));
}

TEST_F(TraceCodecTest, BitFlipSweepNeverCrashes) {
  const auto logs = sample_logs(200);
  write_trace_bin(path("good.ctb"), logs, 64);
  const std::string good = slurp(path("good.ctb"));
  ASSERT_GT(good.size(), columnar::kHeaderBytes + columnar::kTrailerBytes);

  std::size_t io_errors = 0, skipped_reads = 0, clean_reads = 0;
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << (pos % 8)));
    spit(path("bad.ctb"), bad);
    try {
      const auto decoded = read_trace(path("bad.ctb"), TraceCodec::kMmap);
      EXPECT_LE(decoded.size(), logs.size()) << "flip at byte " << pos;
      if (decoded.size() == logs.size()) {
        // A flip that left every record intact can only have hit
        // redundant structure bytes; the records must be unchanged.
        EXPECT_EQ(decoded, logs) << "flip at byte " << pos;
        ++clean_reads;
      } else {
        ++skipped_reads;
      }
    } catch (const IoError&) {
      ++io_errors;  // structural damage: header / footer / trailer
    }
  }
  // The sweep must exercise both failure modes: chunk-level skips (CRC)
  // and file-level rejection (header/footer damage).
  EXPECT_GT(io_errors, 0u);
  EXPECT_GT(skipped_reads, 0u);
  SUCCEED() << clean_reads << " clean, " << skipped_reads << " skipped, "
            << io_errors << " rejected";
}

TEST_F(TraceCodecTest, TruncationSweepNeverCrashes) {
  const auto logs = sample_logs(200);
  write_trace_bin(path("good.ctb"), logs, 64);
  const std::string good = slurp(path("good.ctb"));

  for (std::size_t len = 0; len < good.size(); ++len) {
    spit(path("cut.ctb"), good.substr(0, len));
    // Any truncation removes the trailer, so the file must be rejected
    // as structurally damaged.
    EXPECT_THROW(read_trace(path("cut.ctb"), TraceCodec::kMmap), IoError)
        << "truncated to " << len;
  }
}

TEST_F(TraceCodecTest, CorruptChunkIsSkippedAndCounted) {
  const auto logs = sample_logs(256);
  write_trace_bin(path("t.ctb"), logs, 64);  // 4 chunks
  std::string bytes = slurp(path("t.ctb"));

  // Flip one payload byte of the second chunk: CRC must catch it, the
  // other three chunks must still decode.
  MmapTraceReader index_only(path("t.ctb"));
  ASSERT_EQ(index_only.chunk_count(), 4u);
  const auto& entry = index_only.chunk(1);
  const std::size_t victim = entry.offset + columnar::kChunkHeaderBytes + 3;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  spit(path("t.ctb"), bytes);

  const auto corrupt_before = columnar::io_metrics().chunks_corrupt->value();
  const auto decoded = read_trace(path("t.ctb"), TraceCodec::kMmap);
  EXPECT_EQ(decoded.size(), logs.size() - entry.n_records);
  EXPECT_EQ(columnar::io_metrics().chunks_corrupt->value(),
            corrupt_before + 1);

  std::vector<TrafficLog> expected = logs;
  expected.erase(expected.begin() + 64, expected.begin() + 128);
  EXPECT_EQ(decoded, expected);
}

}  // namespace
}  // namespace cellscope
