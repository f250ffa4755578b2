#include "traffic/trace_codec.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "common/csv.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"
#include "traffic/columnar.h"
#include "traffic/trace_mmap.h"

namespace cellscope {

namespace {

const char* kCsvHeader[] = {"user_id",   "tower_id", "start_minute",
                            "end_minute", "bytes",    "address"};

/// Reject ratio above which a trace file is considered corrupt — the
/// paper's trace loses well under 1% of lines to formatting defects.
constexpr double kMaxRejectRatio = 0.01;

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// Fills `log` from the six cells; false when a numeric cell is not a
/// decimal integer that fits its field (64-bit user and bytes, 32-bit
/// tower and minutes) or the interval violates the half-open
/// end >= start contract.
bool fill_log(const std::string_view* cells, TrafficLog& log) {
  const auto user = parse_u64(cells[0]);
  const auto tower = parse_u64(cells[1], 0, kU32Max);
  const auto start = parse_u64(cells[2], 0, kU32Max);
  const auto end = parse_u64(cells[3], 0, kU32Max);
  const auto bytes = parse_u64(cells[4]);
  if (!user || !tower || !start || !end || !bytes || *end < *start)
    return false;
  log.user_id = *user;
  log.tower_id = static_cast<std::uint32_t>(*tower);
  log.start_minute = static_cast<std::uint32_t>(*start);
  log.end_minute = static_cast<std::uint32_t>(*end);
  log.bytes = *bytes;
  log.address.assign(cells[5].data(), cells[5].size());
  return true;
}

/// Parses one data line. The quote-free common case tokenizes into views
/// over `line` with zero allocations; quoted lines fall back to the
/// RFC-4180 parser. `cells` is caller-owned scratch reused across lines.
bool parse_trace_line(const std::string& line, TrafficLog& log,
                      std::vector<std::string_view>& cells) {
  if (CsvReader::split_unquoted(line, cells)) {
    if (cells.size() != 6) return false;
    return fill_log(cells.data(), log);
  }
  const std::vector<std::string> slow = CsvReader::parse_line(line);
  if (slow.size() != 6) return false;
  cells.clear();
  for (const std::string& cell : slow) cells.emplace_back(cell);
  return fill_log(cells.data(), log);
}

/// Streaming CSV reader. Malformed rows (wrong column count, non-numeric
/// fields) and out-of-range rows (a value overflowing its field,
/// end_minute < start_minute) are skipped — never fatal — and counted on
/// cellscope.io.rejected_lines; the counters, span annotations and the
/// trace_reject_ratio verdict (failing above 1% rejected lines) are
/// recorded once when the stream is exhausted (or the reader is
/// destroyed). Semantic cleaning (duplicates, conflicts) remains the
/// pipeline cleaner's job.
class CsvTraceReader final : public TraceReader {
 public:
  CsvTraceReader(const std::string& path, std::size_t batch_records)
      : batch_records_(batch_records == 0 ? 1 : batch_records) {
    if (CS_FAILPOINT("trace.read.fail"))
      throw IoError("failpoint trace.read.fail: refusing to read " + path);
    span_.emplace("io.read_trace", "io", obs::LogLevel::kDebug);
    in_.open(path);
    if (!in_) throw IoError("cannot open for reading: " + path);
  }

  ~CsvTraceReader() override { finalize(); }

  bool next_batch(std::vector<TrafficLog>& out) override {
    out.clear();
    if (done_) return false;
    if (out.capacity() < batch_records_) out.reserve(batch_records_);
    while (out.size() < batch_records_ && std::getline(in_, line_)) {
      if (!line_.empty() && line_.back() == '\r') line_.pop_back();
      if (!header_seen_) {  // first line is the column header
        header_seen_ = true;
        continue;
      }
      ++data_lines_;
      TrafficLog log;
      if (parse_trace_line(line_, log, cells_))
        out.push_back(std::move(log));
      else
        ++rejected_;
    }
    if (out.empty()) {
      done_ = true;
      finalize();
      return false;
    }
    records_ += out.size();
    return true;
  }

 private:
  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    if (!header_seen_) {  // a file with no lines at all records nothing
      span_.reset();
      return;
    }
    auto& registry = obs::MetricsRegistry::instance();
    registry.counter("cellscope.io.trace_reads").add(1);
    registry.counter("cellscope.io.trace_records").add(records_);
    if (span_) {
      span_->annotate({"records", records_});
      span_->annotate({"rejected", rejected_});
    }
    if (rejected_ > 0)
      registry.counter("cellscope.io.rejected_lines").add(rejected_);
    if (data_lines_ > 0)
      obs::QualityBoard::instance().record(
          "io.read_trace", "trace_reject_ratio", obs::Severity::kFail,
          obs::check_reject_ratio(rejected_, data_lines_, kMaxRejectRatio));
    span_.reset();
  }

  std::size_t batch_records_;
  std::optional<obs::StageSpan> span_;
  std::ifstream in_;
  std::string line_;
  std::vector<std::string_view> cells_;
  bool header_seen_ = false;
  bool done_ = false;
  bool finalized_ = false;
  std::size_t data_lines_ = 0;
  std::size_t records_ = 0;
  std::size_t rejected_ = 0;
};

/// Batch adapter over the mapped reader: one chunk per batch, decoded
/// straight out of the mapping.
class MmapBatchReader final : public TraceReader {
 public:
  explicit MmapBatchReader(const std::string& path) : reader_(path) {
    span_.emplace("io.read_trace", "io", obs::LogLevel::kDebug);
  }

  ~MmapBatchReader() override { finalize(); }

  bool next_batch(std::vector<TrafficLog>& out) override {
    out.clear();
    while (next_chunk_ < reader_.chunk_count()) {
      const std::size_t i = next_chunk_++;
      if (reader_.read_chunk(i, out)) {
        records_ += out.size();
        return true;
      }
      ++corrupt_;
    }
    finalize();
    return false;
  }

  std::optional<std::uint64_t> record_count() const override {
    return reader_.record_count();
  }

 private:
  /// Per-file accounting, recorded once at end of stream: read/record
  /// counters plus the corrupt-chunk quality verdict.
  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    const std::size_t chunks = reader_.chunk_count();
    auto& registry = obs::MetricsRegistry::instance();
    registry.counter("cellscope.io.trace_reads").add(1);
    registry.counter("cellscope.io.trace_records").add(records_);
    if (span_) {
      span_->annotate({"records", records_});
      span_->annotate({"chunks", chunks});
      span_->annotate({"corrupt_chunks", corrupt_});
    }
    record_chunk_corrupt_ratio(corrupt_, chunks);
    span_.reset();
  }

  MmapTraceReader reader_;
  std::optional<obs::StageSpan> span_;
  std::size_t next_chunk_ = 0;
  std::size_t records_ = 0;
  std::size_t corrupt_ = 0;
  bool finalized_ = false;
};

class CsvTraceWriter final : public TraceWriter {
 public:
  explicit CsvTraceWriter(const std::string& path) {
    if (CS_FAILPOINT("trace.write.fail"))
      throw IoError("failpoint trace.write.fail: refusing to write " + path);
    writer_.emplace(path);
    writer_->write_row(
        std::vector<std::string>(std::begin(kCsvHeader), std::end(kCsvHeader)));
  }

  void append(std::span<const TrafficLog> logs) override {
    for (const TrafficLog& log : logs) {
      writer_->write_row({std::to_string(log.user_id),
                          std::to_string(log.tower_id),
                          std::to_string(log.start_minute),
                          std::to_string(log.end_minute),
                          std::to_string(log.bytes), log.address});
    }
  }

  void finish() override { writer_->close(); }

 private:
  std::optional<CsvWriter> writer_;
};

class BinTraceWriter final : public TraceWriter {
 public:
  BinTraceWriter(const std::string& path, std::size_t chunk_records)
      : writer_(path, chunk_records) {}

  void append(std::span<const TrafficLog> logs) override {
    writer_.append(logs);
  }

  void finish() override { writer_.finish(); }

 private:
  ColumnarTraceWriter writer_;
};

}  // namespace

void record_chunk_corrupt_ratio(std::size_t corrupt, std::size_t chunks) {
  if (chunks == 0) return;
  obs::QualityBoard::instance().record(
      "io.read_trace", "trace_chunk_corrupt_ratio", obs::Severity::kFail,
      obs::check_reject_ratio(corrupt, chunks, kMaxRejectRatio));
}

TraceCodec trace_codec_for_path(const std::string& path) {
  const auto dot = path.find_last_of('.');
  const std::string_view ext = dot == std::string::npos
                                   ? std::string_view{}
                                   : std::string_view(path).substr(dot + 1);
  if (ext == "ctb" || ext == "bin") return TraceCodec::kMmap;
  return TraceCodec::kCsv;
}

std::unique_ptr<TraceReader> open_trace_reader(const std::string& path,
                                               TraceCodec codec,
                                               std::size_t batch_records) {
  if (codec == TraceCodec::kAuto) codec = trace_codec_for_path(path);
  switch (codec) {
    case TraceCodec::kCsv:
      return std::make_unique<CsvTraceReader>(path, batch_records);
    case TraceCodec::kBinary:
    case TraceCodec::kMmap:
      return std::make_unique<MmapBatchReader>(path);
    case TraceCodec::kAuto:
      break;
  }
  throw InvalidArgument("unresolvable trace codec for " + path);
}

std::unique_ptr<TraceWriter> open_trace_writer(const std::string& path,
                                               TraceCodec codec,
                                               std::size_t chunk_records) {
  if (codec == TraceCodec::kAuto) codec = trace_codec_for_path(path);
  switch (codec) {
    case TraceCodec::kCsv:
      return std::make_unique<CsvTraceWriter>(path);
    case TraceCodec::kBinary:
    case TraceCodec::kMmap:
      return std::make_unique<BinTraceWriter>(path, chunk_records);
    case TraceCodec::kAuto:
      break;
  }
  throw InvalidArgument("unresolvable trace codec for " + path);
}

std::vector<TrafficLog> read_trace(const std::string& path, TraceCodec codec) {
  auto reader = open_trace_reader(path, codec);
  std::vector<TrafficLog> logs;
  if (const auto count = reader->record_count()) {
    logs.reserve(*count);
  } else {
    // CSV only knows its record count at EOF; pre-size from the file
    // size over a conservative average row width so a month-scale load
    // does one big allocation instead of a growth cascade.
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    if (!ec && bytes > 0)
      logs.reserve(static_cast<std::size_t>(bytes / 32) + 1);
  }
  std::vector<TrafficLog> batch;
  while (reader->next_batch(batch))
    logs.insert(logs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  return logs;
}

void write_trace(const std::string& path, const std::vector<TrafficLog>& logs,
                 TraceCodec codec) {
  auto writer = open_trace_writer(path, codec);
  writer->append(std::span<const TrafficLog>(logs));
  writer->finish();
}

}  // namespace cellscope
