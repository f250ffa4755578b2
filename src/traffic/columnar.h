// Columnar binary trace format — the out-of-core counterpart of the CSV
// trace (trace_codec.h), built for full-paper scale (§2.1's 1.96 B tuples).
//
// On-disk layout (all integers little-endian; DESIGN.md §10):
//
//   file   := header chunk* footer trailer
//   header := "CSTB" u16 version u16 flags              (8 bytes)
//   chunk  := u32 'CHNK' u32 n_records u32 payload_len
//             payload u32 crc32                          (frame)
//   footer := u32 'FOOT' u32 n_chunks entry* u32 crc32
//   entry  := u64 offset u32 payload_len u32 n_records
//             u32 min_tower u32 max_tower
//             u32 min_minute u32 max_minute              (32 bytes)
//   trailer:= u64 footer_offset u32 'CSTE'               (12 bytes)
//
// The payload is six column blocks (u32 length + data) in record-field
// order: user ids, tower ids, start minutes, end minutes, byte counts,
// addresses. Time columns use zigzag-delta varints (a time-ordered trace
// has tiny deltas, so most land in one byte); ids and byte counts are
// plain varints; addresses are varint-length-prefixed strings. Column
// blocks let a reader decode only the fields it needs — the window-apply
// path never touches user ids or addresses.
//
// Every chunk is self-contained (delta bases reset per chunk) and CRC32
// framed (common/checksum.h), so a merge tool concatenates chunk frames
// verbatim and only rebuilds the footer, and a corrupt chunk is skipped
// and counted without giving up on the rest of the file. The footer's
// per-chunk tower/minute min-max ranges let shard-affine and time-range
// reads skip whole chunks without touching their pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "traffic/trace_record.h"

namespace cellscope {

namespace obs {
class Counter;
class Histogram;
}  // namespace obs

/// A decoded chunk, column-oriented: the fields the streaming ingest
/// path applies to tower windows, in record order, without materializing
/// TrafficLog structs (StreamIngestor::ingest_columns consumes this).
struct DecodedColumns {
  std::vector<std::uint32_t> tower;
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> end;
  std::vector<std::uint64_t> bytes;

  std::size_t size() const { return tower.size(); }
  void clear() {
    tower.clear();
    start.clear();
    end.clear();
    bytes.clear();
  }
};

namespace columnar {

inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kDefaultChunkRecords = 65536;

inline constexpr std::size_t kHeaderBytes = 8;        // magic+version+flags
inline constexpr std::size_t kChunkHeaderBytes = 12;  // magic+n+payload_len
inline constexpr std::size_t kChunkCrcBytes = 4;
inline constexpr std::size_t kIndexEntryBytes = 32;
inline constexpr std::size_t kFooterHeaderBytes = 8;  // magic+n_chunks
inline constexpr std::size_t kTrailerBytes = 12;      // footer_offset+magic

/// One footer index entry. `offset` addresses the chunk frame's first
/// byte (the 'CHNK' magic); the frame spans kChunkHeaderBytes +
/// payload_len + kChunkCrcBytes bytes.
struct ChunkIndexEntry {
  std::uint64_t offset = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t n_records = 0;
  std::uint32_t min_tower = 0;
  std::uint32_t max_tower = 0;
  std::uint32_t min_minute = 0;  ///< smallest start_minute in the chunk
  std::uint32_t max_minute = 0;  ///< largest end_minute in the chunk

  std::size_t frame_len() const {
    return kChunkHeaderBytes + payload_len + kChunkCrcBytes;
  }
};

/// Encodes `logs` as one complete chunk frame appended to `out`, and
/// fills `entry` (offset is left at 0 — the writer rebases it). `logs`
/// must be non-empty and at most UINT32_MAX records.
void encode_chunk(std::span<const TrafficLog> logs, std::string& out,
                  ChunkIndexEntry& entry);

/// Column-selective decode: fills `out` (cleared first; capacity reused)
/// with the tower/start/end/bytes columns only, skipping the user-id and
/// address blocks wholesale. Validates the frame magic, lengths, and CRC;
/// rejects a claimed record count larger than any column block (each
/// record takes at least one byte in every block) before allocating;
/// bounds-checks every varint and requires each decoded block to be
/// consumed exactly. Returns false (with `out` empty) on any corruption.
bool decode_chunk_columns(const unsigned char* frame, std::size_t frame_len,
                          DecodedColumns& out);

/// decode_chunk_columns plus the user-id and address blocks, appended to
/// `out` as TrafficLog records. Same validation contract, the two extra
/// blocks included; returns false (leaving `out` untouched) on any
/// corruption.
bool decode_chunk_records(const unsigned char* frame, std::size_t frame_len,
                          std::vector<TrafficLog>& out);

/// The 8-byte file header.
std::string encode_header();

/// Footer body + trailer for chunks whose entries already carry final
/// offsets; append at `footer_offset` (the current end of data).
std::string encode_footer(const std::vector<ChunkIndexEntry>& entries,
                          std::uint64_t footer_offset);

/// Validates header magic/version of a mapped or read file prefix.
bool check_header(const unsigned char* data, std::size_t len);

/// Parses and validates the footer of a fully mapped file: trailer magic,
/// footer bounds, footer CRC, and per-entry frame bounds (each chunk
/// frame must lie inside [kHeaderBytes, footer_offset), ascending).
/// Returns false with a diagnostic in `error` on any violation.
bool parse_footer(const unsigned char* data, std::size_t len,
                  std::vector<ChunkIndexEntry>& entries, std::string& error);

/// Hot-path cached handles to the ingest-side IO metrics shared by the
/// binary trace readers (cellscope.io.chunks_{read,skipped,corrupt},
/// cellscope.io.bytes_mapped, cellscope.io.chunk_decode_ms).
struct IoMetrics {
  obs::Counter* chunks_read;
  obs::Counter* chunks_skipped;
  obs::Counter* chunks_corrupt;
  obs::Counter* bytes_mapped;
  obs::Histogram* decode_ms;
};
IoMetrics& io_metrics();

}  // namespace columnar

/// Streams records into a columnar trace file, chunk by chunk. append()
/// buffers at most one chunk's records; finish() (or the destructor)
/// flushes the tail chunk and writes the footer index. Throws IoError on
/// write failure.
class ColumnarTraceWriter {
 public:
  explicit ColumnarTraceWriter(
      const std::string& path,
      std::size_t chunk_records = columnar::kDefaultChunkRecords);
  ~ColumnarTraceWriter();

  void append(std::span<const TrafficLog> logs);

  /// Flushes the tail chunk, writes footer + trailer, and closes.
  /// Idempotent; further append() calls throw.
  void finish();

  ColumnarTraceWriter(const ColumnarTraceWriter&) = delete;
  ColumnarTraceWriter& operator=(const ColumnarTraceWriter&) = delete;

 private:
  void flush_chunk();
  void write_bytes(const std::string& bytes);

  std::string path_;
  std::ofstream out_;
  std::size_t chunk_records_;
  std::vector<TrafficLog> pending_;
  std::vector<columnar::ChunkIndexEntry> index_;
  std::uint64_t offset_ = 0;  ///< current end-of-data file offset
  bool finished_ = false;
};

/// Writes logs as one columnar binary trace file (header, chunks, footer).
void write_trace_bin(const std::string& path,
                     const std::vector<TrafficLog>& logs,
                     std::size_t chunk_records = columnar::kDefaultChunkRecords);

}  // namespace cellscope
