// Columnar binary trace format (traffic/columnar.h): chunk encode/decode
// round trips, column-selective decode, the footer index ranges, merge by
// verbatim frame copy, and whole-file round trips through the mapped
// reader.
#include "traffic/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"

namespace cellscope {
namespace {

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cs_columnar_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

std::vector<TrafficLog> varied_logs(std::size_t n, std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<TrafficLog> logs;
  logs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TrafficLog log;
    log.user_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    log.tower_id = static_cast<std::uint32_t>(rng.uniform_int(0, 9599));
    log.start_minute = static_cast<std::uint32_t>(rng.uniform_int(0, 40319));
    log.end_minute =
        log.start_minute + static_cast<std::uint32_t>(rng.uniform_int(0, 120));
    log.bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    log.address = i % 3 == 0 ? "" : "District-" + std::to_string(i % 17);
    logs.push_back(std::move(log));
  }
  return logs;
}

TEST_F(ColumnarTest, ChunkRoundTripsRecords) {
  const auto logs = varied_logs(500);
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  EXPECT_EQ(entry.n_records, 500u);
  EXPECT_EQ(frame.size(), entry.frame_len());

  std::vector<TrafficLog> decoded;
  ASSERT_TRUE(columnar::decode_chunk_records(
      reinterpret_cast<const unsigned char*>(frame.data()), frame.size(),
      decoded));
  EXPECT_EQ(decoded, logs);
}

TEST_F(ColumnarTest, ChunkRoundTripsUnorderedTimes) {
  // Zigzag deltas must survive arbitrary (non-monotone) start times.
  std::vector<TrafficLog> logs = varied_logs(64);
  std::reverse(logs.begin(), logs.end());
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  std::vector<TrafficLog> decoded;
  ASSERT_TRUE(columnar::decode_chunk_records(
      reinterpret_cast<const unsigned char*>(frame.data()), frame.size(),
      decoded));
  EXPECT_EQ(decoded, logs);
}

TEST_F(ColumnarTest, ColumnDecodeMatchesRecordFields) {
  const auto logs = varied_logs(300);
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  DecodedColumns cols;
  ASSERT_TRUE(columnar::decode_chunk_columns(
      reinterpret_cast<const unsigned char*>(frame.data()), frame.size(),
      cols));
  ASSERT_EQ(cols.size(), logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    EXPECT_EQ(cols.tower[i], logs[i].tower_id);
    EXPECT_EQ(cols.start[i], logs[i].start_minute);
    EXPECT_EQ(cols.end[i], logs[i].end_minute);
    EXPECT_EQ(cols.bytes[i], logs[i].bytes);
  }
}

TEST_F(ColumnarTest, IndexEntryTracksMinMaxRanges) {
  const auto logs = varied_logs(200);
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  std::uint32_t min_tower = 0xffffffffu, max_tower = 0;
  std::uint32_t min_minute = 0xffffffffu, max_minute = 0;
  for (const auto& log : logs) {
    min_tower = std::min(min_tower, log.tower_id);
    max_tower = std::max(max_tower, log.tower_id);
    min_minute = std::min(min_minute, log.start_minute);
    max_minute = std::max(max_minute, log.end_minute);
  }
  EXPECT_EQ(entry.min_tower, min_tower);
  EXPECT_EQ(entry.max_tower, max_tower);
  EXPECT_EQ(entry.min_minute, min_minute);
  EXPECT_EQ(entry.max_minute, max_minute);
}

TEST_F(ColumnarTest, FileRoundTripsThroughMappedReader) {
  const auto logs = varied_logs(10000);
  write_trace_bin(path("t.ctb"), logs, 1024);  // several chunks
  EXPECT_EQ(read_trace(path("t.ctb")), logs);

  MmapTraceReader reader(path("t.ctb"));
  EXPECT_EQ(reader.record_count(), logs.size());
  EXPECT_EQ(reader.chunk_count(), 10u);
}

TEST_F(ColumnarTest, EmptyTraceRoundTrips) {
  write_trace_bin(path("empty.ctb"), {});
  const auto logs = read_trace(path("empty.ctb"));
  EXPECT_TRUE(logs.empty());
  MmapTraceReader reader(path("empty.ctb"));
  EXPECT_EQ(reader.chunk_count(), 0u);
}

TEST_F(ColumnarTest, WriterDestructorFinishesFile) {
  const auto logs = varied_logs(100);
  {
    ColumnarTraceWriter writer(path("t.ctb"), 32);
    writer.append(std::span<const TrafficLog>(logs));
    // no finish(): the destructor must flush the tail and the footer
  }
  EXPECT_EQ(read_trace(path("t.ctb")), logs);
}

TEST_F(ColumnarTest, ChunkFilterPrunesByIndexRanges) {
  // Three chunks with disjoint tower ranges; a tower filter must visit
  // only the overlapping chunk.
  std::vector<TrafficLog> logs;
  for (std::uint32_t t = 0; t < 30; ++t)
    logs.push_back({1, t, 100 + t, 100 + t, 10, ""});
  write_trace_bin(path("t.ctb"), logs, 10);
  MmapTraceReader reader(path("t.ctb"));
  ASSERT_EQ(reader.chunk_count(), 3u);

  ChunkFilter filter;
  filter.min_tower = 10;
  filter.max_tower = 19;
  std::size_t visited = 0;
  std::vector<TrafficLog> chunk;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    if (!reader.chunk_overlaps(i, filter)) continue;
    ++visited;
    ASSERT_TRUE(reader.read_chunk(i, chunk));
    for (const auto& log : chunk)
      EXPECT_TRUE(log.tower_id >= 10 && log.tower_id <= 19);
  }
  EXPECT_EQ(visited, 1u);

  ChunkFilter time_filter;
  time_filter.min_minute = 0;
  time_filter.max_minute = 104;  // overlaps only the first chunk
  visited = 0;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i)
    if (reader.chunk_overlaps(i, time_filter)) ++visited;
  EXPECT_EQ(visited, 1u);
}

TEST_F(ColumnarTest, MergeConcatenatesVerbatim) {
  const auto a = varied_logs(2000, 1);
  const auto b = varied_logs(1500, 2);
  write_trace_bin(path("a.ctb"), a, 512);
  write_trace_bin(path("b.ctb"), b, 512);
  const std::uint64_t merged =
      merge_trace_bin({path("a.ctb"), path("b.ctb")}, path("m.ctb"));
  EXPECT_EQ(merged, a.size() + b.size());

  std::vector<TrafficLog> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  EXPECT_EQ(read_trace(path("m.ctb")), expected);

  // Chunk count is the sum — frames were copied, not re-chunked.
  MmapTraceReader ra(path("a.ctb")), rb(path("b.ctb")), rm(path("m.ctb"));
  EXPECT_EQ(rm.chunk_count(), ra.chunk_count() + rb.chunk_count());
}

/// Overwrites the u32 at `at` in `bytes` with `value`, then recomputes
/// the CRC32 of bytes [crc_begin, crc_end) stored at crc_end, so only
/// the value is wrong.
void patch_u32(std::string& bytes, std::size_t at, std::uint32_t value,
               std::size_t crc_begin, std::size_t crc_end) {
  std::memcpy(&bytes[at], &value, sizeof(value));
  const std::uint32_t crc = crc32(&bytes[crc_begin], crc_end - crc_begin);
  std::memcpy(&bytes[crc_end], &crc, sizeof(crc));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ColumnarTest, MisclaimedRecordCountIsACountedCorruptChunk) {
  // One 50-record chunk with CRC-valid counts patched in. A frame that
  // claims one record fewer or one more than its blocks hold, or 2^32 - 1
  // records (sized before any check, that claim would ask for >= 16 GiB
  // per column), fails both decoders without throwing. An intact frame
  // whose footer entry claims 49 decodes, but does not pair with its
  // index. Every case is one counted corrupt chunk per reader call.
  struct Claim {
    std::uint32_t frame;
    std::uint32_t footer;
  };
  const auto logs = varied_logs(50);
  for (const auto [frame_claim, footer_claim] :
       {Claim{49, 50}, Claim{51, 50}, Claim{0xffffffffu, 50},
        Claim{50, 49}}) {
    SCOPED_TRACE(testing::Message() << frame_claim << "/" << footer_claim);
    write_trace_bin(path("t.ctb"), logs);
    std::string file = read_file(path("t.ctb"));
    const std::size_t frame = columnar::kHeaderBytes;
    std::uint32_t payload_len = 0;
    std::memcpy(&payload_len, &file[frame + 8], sizeof(payload_len));
    const std::size_t crc_at = frame + columnar::kChunkHeaderBytes + payload_len;
    const std::size_t footer = crc_at + columnar::kChunkCrcBytes;
    patch_u32(file, frame + 4, frame_claim, frame + 4, crc_at);
    patch_u32(file, footer + columnar::kFooterHeaderBytes + 12, footer_claim,
              footer,
              footer + columnar::kFooterHeaderBytes + columnar::kIndexEntryBytes);
    write_file(path("t.ctb"), file);

    const auto* data = reinterpret_cast<const unsigned char*>(&file[frame]);
    const bool frame_intact = frame_claim == logs.size();
    std::vector<TrafficLog> records;
    DecodedColumns cols;
    EXPECT_EQ(columnar::decode_chunk_records(data, footer - frame, records),
              frame_intact);
    EXPECT_EQ(records.size(), frame_intact ? logs.size() : 0u);
    EXPECT_EQ(columnar::decode_chunk_columns(data, footer - frame, cols),
              frame_intact);
    EXPECT_EQ(cols.size(), frame_intact ? logs.size() : 0u);

    MmapTraceReader reader(path("t.ctb"));
    const auto corrupt_before =
        columnar::io_metrics().chunks_corrupt->value();
    EXPECT_FALSE(reader.read_chunk(0, records));
    EXPECT_TRUE(records.empty());
    EXPECT_FALSE(reader.read_chunk_columns(0, cols));
    EXPECT_EQ(cols.size(), 0u);
    EXPECT_EQ(columnar::io_metrics().chunks_corrupt->value(),
              corrupt_before + 2);
  }
}

TEST_F(ColumnarTest, MissingFileThrowsIoError) {
  EXPECT_THROW(MmapTraceReader reader(path("nope.ctb")), IoError);
  EXPECT_THROW(read_trace(path("nope.ctb")), IoError);
}

}  // namespace
}  // namespace cellscope
