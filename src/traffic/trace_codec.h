// Pluggable trace codecs: one reader/writer interface over the CSV and
// columnar-binary backends.
//
// Callers pick a backend with an explicit TraceCodec or let kAuto route
// by extension: ".csv" is the text format, ".ctb"/".bin" the columnar
// binary (traffic/columnar.h), always read through the mapped, indexed
// reader (traffic/trace_mmap.h). The streaming interface hands out
// bounded batches, so every consumer — conversion tools, the stream
// replay harness, tests — can process a trace far larger than RAM
// without ever holding more than one batch of records.
//
// read_trace/write_trace are the whole-file conveniences.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "traffic/trace_record.h"

namespace cellscope {

/// Backend selector. kAuto routes by file extension.
enum class TraceCodec {
  kAuto,    ///< by extension: .csv -> kCsv, .ctb/.bin -> kMmap (read) / kBinary (write)
  kCsv,     ///< text CSV with a header row
  kBinary,  ///< columnar binary (read through the mapped reader, as kMmap)
  kMmap,    ///< columnar binary via the mapped, indexed reader
};

/// The codec kAuto resolves to for `path` in read position.
TraceCodec trace_codec_for_path(const std::string& path);

/// Streaming record source. next_batch() fills a caller-owned vector
/// (cleared first; capacity reused) and returns false once the trace is
/// exhausted — after which the per-file accounting (reject counters,
/// quality verdicts, corrupt-chunk counts) has been recorded.
class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Next batch of records; false at end of stream (out left empty).
  virtual bool next_batch(std::vector<TrafficLog>& out) = 0;

  /// Total records in the trace when the format indexes it (columnar
  /// backends); nullopt for CSV, which only knows at EOF.
  virtual std::optional<std::uint64_t> record_count() const {
    return std::nullopt;
  }
};

/// Streaming record sink. finish() finalizes the file (footer index for
/// the columnar backend); the destructor finishes best-effort.
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;
  virtual void append(std::span<const TrafficLog> logs) = 0;
  virtual void finish() = 0;
};

/// Opens a streaming reader; `batch_records` bounds batch sizes for the
/// CSV backend (columnar backends batch per chunk). Throws IoError when
/// the file cannot be opened or its structure is invalid.
std::unique_ptr<TraceReader> open_trace_reader(
    const std::string& path, TraceCodec codec = TraceCodec::kAuto,
    std::size_t batch_records = 65536);

/// Opens a streaming writer; `chunk_records` sizes columnar chunks (the
/// CSV backend ignores it).
std::unique_ptr<TraceWriter> open_trace_writer(
    const std::string& path, TraceCodec codec = TraceCodec::kAuto,
    std::size_t chunk_records = 65536);

/// Records the "trace_chunk_corrupt_ratio" quality verdict — the binary
/// analogue of the CSV trace_reject_ratio, failing when more than 1% of
/// the `chunks` chunks read were corrupt. Every pass over a columnar file
/// (the mapped reader, the stream replay) records it once; a file with no
/// chunks records nothing.
void record_chunk_corrupt_ratio(std::size_t corrupt, std::size_t chunks);

/// Whole-file read through the selected codec (malformed rows / corrupt
/// chunks are skipped and counted per the backend's contract).
std::vector<TrafficLog> read_trace(const std::string& path,
                                   TraceCodec codec = TraceCodec::kAuto);

/// Whole-file write through the selected codec.
void write_trace(const std::string& path, const std::vector<TrafficLog>& logs,
                 TraceCodec codec = TraceCodec::kAuto);

}  // namespace cellscope
