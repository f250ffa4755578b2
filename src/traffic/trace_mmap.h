// Memory-mapped columnar trace access — indexed, zero-copy, out-of-core.
//
// MmapTraceReader maps a columnar trace file (traffic/columnar.h) read-
// only and validates its footer index up front; chunk payloads are then
// decoded straight out of the mapping (no read() copies, no whole-trace
// vector), so a month of logs streams through a bounded amount of heap:
// the only per-chunk allocations are the reusable decode scratch buffers
// the caller owns. The kernel pages chunk data in and out on demand —
// the trace never has to fit in RAM.
//
// The footer's per-chunk tower/minute min-max ranges drive chunk
// skipping: a Filter that wants one day, or one shard's tower range,
// never touches the pages of chunks that cannot overlap it (counted on
// cellscope.io.chunks_skipped).
//
// Corruption contract: a chunk that fails its CRC or decode is skipped
// and counted (cellscope.io.chunks_corrupt) — never fatal — so one
// flipped bit does not abort a month-long ingest. File-level structure
// damage (bad header, unparseable footer) throws IoError from the
// constructor, before any data is consumed.
//
// Metrics: cellscope.io.chunks_{read,skipped,corrupt} counters,
// cellscope.io.bytes_mapped counter, cellscope.io.chunk_decode_ms
// histogram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "traffic/columnar.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Chunk predicate: a chunk is visited only when its index ranges
/// overlap both intervals (inclusive). Defaults pass everything.
struct ChunkFilter {
  std::uint32_t min_tower = 0;
  std::uint32_t max_tower = 0xffffffffu;
  std::uint32_t min_minute = 0;
  std::uint32_t max_minute = 0xffffffffu;
};

/// Read-only mapped view of one columnar trace file.
class MmapTraceReader {
 public:
  /// Maps the file and validates header + footer index; throws IoError
  /// when the file cannot be opened/mapped or its structure is invalid.
  explicit MmapTraceReader(const std::string& path);
  ~MmapTraceReader();

  std::size_t chunk_count() const { return index_.size(); }
  const columnar::ChunkIndexEntry& chunk(std::size_t i) const {
    return index_[i];
  }
  /// Sum of per-chunk record counts over the whole file.
  std::uint64_t record_count() const { return record_count_; }
  /// Bytes of file data this reader mapped.
  std::uint64_t bytes_mapped() const { return size_; }
  const std::string& path() const { return path_; }

  bool chunk_overlaps(std::size_t i, const ChunkFilter& filter) const {
    const auto& e = index_[i];
    return e.max_tower >= filter.min_tower && e.min_tower <= filter.max_tower &&
           e.max_minute >= filter.min_minute && e.min_minute <= filter.max_minute;
  }

  /// Decodes chunk i into TrafficLog records (`out` is cleared first;
  /// capacity is reused across calls). Returns false — with `out` empty
  /// and cellscope.io.chunks_corrupt bumped — when the chunk is corrupt,
  /// including a frame whose record count disagrees with its footer
  /// entry.
  bool read_chunk(std::size_t i, std::vector<TrafficLog>& out) const;

  /// Column-selective decode of chunk i (tower/start/end/bytes only) for
  /// the bulk ingest path. Same corruption contract as read_chunk.
  bool read_chunk_columns(std::size_t i, DecodedColumns& out) const;

  /// Raw frame bytes of chunk i (header + payload + CRC) — the merge
  /// tool copies these verbatim, CRC and all.
  std::span<const unsigned char> chunk_frame(std::size_t i) const;

  MmapTraceReader(const MmapTraceReader&) = delete;
  MmapTraceReader& operator=(const MmapTraceReader&) = delete;

 private:
  std::string path_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<columnar::ChunkIndexEntry> index_;
  std::uint64_t record_count_ = 0;
};

/// Concatenates the chunks of `inputs` into `output` and writes a fresh
/// footer index — chunk frames are copied verbatim (they are self-
/// contained and CRC-framed), so merging a month of daily files costs
/// one sequential copy plus an index rebuild, never a decode. Returns
/// the merged record count. Throws IoError on any unreadable input.
std::uint64_t merge_trace_bin(const std::vector<std::string>& inputs,
                              const std::string& output);

}  // namespace cellscope
