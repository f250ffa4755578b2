#include "traffic/columnar.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/checksum.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/varint.h"
#include "obs/metrics.h"

namespace cellscope {
namespace columnar {

namespace {

constexpr std::uint32_t kChunkMagic = 0x4b4e4843;   // "CHNK"
constexpr std::uint32_t kFooterMagic = 0x544f4f46;  // "FOOT"
constexpr std::uint32_t kTailMagic = 0x45545343;    // "CSTE"
constexpr char kFileMagic[4] = {'C', 'S', 'T', 'B'};

void append_u16(std::uint16_t v, std::string& out) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void append_u32(std::uint32_t v, std::string& out) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void append_u64(std::uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));  // little-endian hosts only (DESIGN.md §10)
  return v;
}

std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Column-block boundaries of a validated payload: begin/end byte ranges
/// of the six blocks, each prefixed by a u32 length. Returns false when
/// any block overruns the payload.
struct ColumnSpans {
  const unsigned char* begin[6];
  const unsigned char* end[6];
};

bool split_columns(const unsigned char* payload, std::size_t payload_len,
                   ColumnSpans& spans) {
  const unsigned char* p = payload;
  const unsigned char* limit = payload + payload_len;
  for (int c = 0; c < 6; ++c) {
    if (limit - p < 4) return false;
    const std::uint32_t len = read_u32(p);
    p += 4;
    if (static_cast<std::size_t>(limit - p) < len) return false;
    spans.begin[c] = p;
    spans.end[c] = p + len;
    p += len;
  }
  return p == limit;  // trailing garbage is corruption too
}

/// Validates the chunk frame (magic, lengths, CRC) and exposes the
/// payload. The CRC covers n_records + payload_len + payload, so header
/// bit flips are caught as well.
bool open_frame(const unsigned char* frame, std::size_t frame_len,
                std::uint32_t& n_records, const unsigned char*& payload,
                std::size_t& payload_len) {
  if (frame_len < kChunkHeaderBytes + kChunkCrcBytes) return false;
  if (read_u32(frame) != kChunkMagic) return false;
  n_records = read_u32(frame + 4);
  payload_len = read_u32(frame + 8);
  if (frame_len != kChunkHeaderBytes + payload_len + kChunkCrcBytes)
    return false;
  payload = frame + kChunkHeaderBytes;
  const std::uint32_t stored = read_u32(payload + payload_len);
  if (CS_FAILPOINT("trace.chunk.corrupt")) return false;
  return crc32(frame + 4, 8 + payload_len) == stored;
}

}  // namespace

void encode_chunk(std::span<const TrafficLog> logs, std::string& out,
                  ChunkIndexEntry& entry) {
  CS_CHECK_MSG(!logs.empty(), "columnar chunk must hold at least one record");
  CS_CHECK_MSG(logs.size() <= std::numeric_limits<std::uint32_t>::max(),
               "columnar chunk record count overflows u32");

  entry = ChunkIndexEntry{};
  entry.n_records = static_cast<std::uint32_t>(logs.size());
  entry.min_tower = std::numeric_limits<std::uint32_t>::max();
  entry.min_minute = std::numeric_limits<std::uint32_t>::max();

  // The six column blocks; time columns are zigzag deltas so both the
  // forward-ordered common case and arbitrary orders encode losslessly.
  std::string cols[6];
  cols[0].reserve(logs.size() * 3);
  cols[1].reserve(logs.size() * 2);
  cols[2].reserve(logs.size());
  cols[3].reserve(logs.size());
  cols[4].reserve(logs.size() * 3);
  std::uint32_t prev_start = 0;
  for (const TrafficLog& log : logs) {
    varint_encode(log.user_id, cols[0]);
    varint_encode(log.tower_id, cols[1]);
    varint_encode(zigzag_encode(static_cast<std::int64_t>(log.start_minute) -
                                static_cast<std::int64_t>(prev_start)),
                  cols[2]);
    prev_start = log.start_minute;
    varint_encode(zigzag_encode(static_cast<std::int64_t>(log.end_minute) -
                                static_cast<std::int64_t>(log.start_minute)),
                  cols[3]);
    varint_encode(log.bytes, cols[4]);
    varint_encode(log.address.size(), cols[5]);
    cols[5].append(log.address);

    entry.min_tower = std::min(entry.min_tower, log.tower_id);
    entry.max_tower = std::max(entry.max_tower, log.tower_id);
    entry.min_minute = std::min(entry.min_minute, log.start_minute);
    entry.max_minute = std::max(entry.max_minute, log.end_minute);
  }

  std::size_t payload_len = 0;
  for (const auto& col : cols) payload_len += 4 + col.size();
  CS_CHECK_MSG(payload_len <= std::numeric_limits<std::uint32_t>::max(),
               "columnar chunk payload overflows u32 — lower chunk_records");
  entry.payload_len = static_cast<std::uint32_t>(payload_len);

  const std::size_t frame_start = out.size();
  out.reserve(out.size() + entry.frame_len());
  append_u32(kChunkMagic, out);
  append_u32(entry.n_records, out);
  append_u32(entry.payload_len, out);
  for (const auto& col : cols) {
    append_u32(static_cast<std::uint32_t>(col.size()), out);
    out.append(col);
  }
  // CRC over n_records + payload_len + payload (everything after the
  // magic), so a flipped header field fails validation like flipped data.
  const std::uint32_t crc =
      crc32(out.data() + frame_start + 4, 8 + entry.payload_len);
  append_u32(crc, out);
}

namespace {

/// The one frame decoder: validates the frame (open_frame) and its
/// column blocks, then fills `out` (cleared first) with the tower, start,
/// end and byte columns and leaves the user-id and address blocks in
/// `cols` for decode_chunk_records. The claimed record count is bounded
/// before anything is allocated — every record takes at least one byte
/// in each of the six blocks — and each decoded block must be consumed
/// exactly.
bool decode_frame(const unsigned char* frame, std::size_t frame_len,
                  DecodedColumns& out, ColumnSpans& cols) {
  out.clear();
  std::uint32_t n_records = 0;
  const unsigned char* payload = nullptr;
  std::size_t payload_len = 0;
  if (!open_frame(frame, frame_len, n_records, payload, payload_len) ||
      !split_columns(payload, payload_len, cols))
    return false;
  for (int c = 0; c < 6; ++c)
    if (static_cast<std::size_t>(cols.end[c] - cols.begin[c]) < n_records)
      return false;

  out.tower.resize(n_records);
  out.start.resize(n_records);
  out.end.resize(n_records);
  out.bytes.resize(n_records);
  const unsigned char* tower = cols.begin[1];
  const unsigned char* start = cols.begin[2];
  const unsigned char* end = cols.begin[3];
  const unsigned char* bytes = cols.begin[4];
  std::uint32_t prev_start = 0;
  const auto corrupt = [&out] {
    out.clear();
    return false;
  };
  for (std::uint32_t i = 0; i < n_records; ++i) {
    std::uint64_t v = 0;
    if (!varint_decode(&tower, cols.end[1], v) ||
        v > std::numeric_limits<std::uint32_t>::max())
      return corrupt();
    out.tower[i] = static_cast<std::uint32_t>(v);
    if (!varint_decode(&start, cols.end[2], v)) return corrupt();
    const std::int64_t s = prev_start + zigzag_decode(v);
    if (s < 0 || s > std::numeric_limits<std::uint32_t>::max())
      return corrupt();
    out.start[i] = static_cast<std::uint32_t>(s);
    prev_start = out.start[i];
    if (!varint_decode(&end, cols.end[3], v)) return corrupt();
    const std::int64_t e = s + zigzag_decode(v);
    if (e < 0 || e > std::numeric_limits<std::uint32_t>::max())
      return corrupt();
    out.end[i] = static_cast<std::uint32_t>(e);
    if (!varint_decode(&bytes, cols.end[4], out.bytes[i])) return corrupt();
  }
  if (tower != cols.end[1] || start != cols.end[2] || end != cols.end[3] ||
      bytes != cols.end[4])
    return corrupt();
  return true;
}

}  // namespace

bool decode_chunk_records(const unsigned char* frame, std::size_t frame_len,
                          std::vector<TrafficLog>& out) {
  DecodedColumns columns;
  ColumnSpans cols;
  if (!decode_frame(frame, frame_len, columns, cols)) return false;

  const std::size_t base = out.size();
  out.resize(base + columns.size());
  const unsigned char* user = cols.begin[0];
  const unsigned char* addr = cols.begin[5];
  std::size_t i = 0;
  for (; i < columns.size(); ++i) {
    TrafficLog& log = out[base + i];
    std::uint64_t addr_len = 0;
    if (!varint_decode(&user, cols.end[0], log.user_id) ||
        !varint_decode(&addr, cols.end[5], addr_len) ||
        addr_len > static_cast<std::uint64_t>(cols.end[5] - addr))
      break;
    log.tower_id = columns.tower[i];
    log.start_minute = columns.start[i];
    log.end_minute = columns.end[i];
    log.bytes = columns.bytes[i];
    log.address.assign(reinterpret_cast<const char*>(addr),
                       static_cast<std::size_t>(addr_len));
    addr += addr_len;
  }
  if (i == columns.size() && user == cols.end[0] && addr == cols.end[5])
    return true;
  out.resize(base);  // leave the output untouched on corruption
  return false;
}

bool decode_chunk_columns(const unsigned char* frame, std::size_t frame_len,
                          DecodedColumns& out) {
  ColumnSpans cols;
  return decode_frame(frame, frame_len, out, cols);
}

std::string encode_header() {
  std::string out(kFileMagic, sizeof(kFileMagic));
  append_u16(kVersion, out);
  append_u16(0, out);  // flags, reserved
  return out;
}

std::string encode_footer(const std::vector<ChunkIndexEntry>& entries,
                          std::uint64_t footer_offset) {
  std::string out;
  out.reserve(kFooterHeaderBytes + entries.size() * kIndexEntryBytes + 4 +
              kTrailerBytes);
  append_u32(kFooterMagic, out);
  append_u32(static_cast<std::uint32_t>(entries.size()), out);
  for (const auto& entry : entries) {
    append_u64(entry.offset, out);
    append_u32(entry.payload_len, out);
    append_u32(entry.n_records, out);
    append_u32(entry.min_tower, out);
    append_u32(entry.max_tower, out);
    append_u32(entry.min_minute, out);
    append_u32(entry.max_minute, out);
  }
  append_u32(crc32(out.data(), out.size()), out);
  append_u64(footer_offset, out);
  append_u32(kTailMagic, out);
  return out;
}

bool check_header(const unsigned char* data, std::size_t len) {
  if (len < kHeaderBytes) return false;
  if (std::memcmp(data, kFileMagic, sizeof(kFileMagic)) != 0) return false;
  const std::uint16_t version =
      static_cast<std::uint16_t>(data[4] | (data[5] << 8));
  return version == kVersion;
}

bool parse_footer(const unsigned char* data, std::size_t len,
                  std::vector<ChunkIndexEntry>& entries, std::string& error) {
  entries.clear();
  constexpr std::size_t kMinTail = kFooterHeaderBytes + 4 + kTrailerBytes;
  if (len < kHeaderBytes + kMinTail) {
    error = "file too small for header + trailer";
    return false;
  }
  const unsigned char* trailer = data + len - kTrailerBytes;
  if (read_u32(trailer + 8) != kTailMagic) {
    error = "bad trailer magic (truncated or not a columnar trace)";
    return false;
  }
  const std::uint64_t footer_offset = read_u64(trailer);
  // Subtract rather than add on the right-hand side: a corrupted offset
  // near UINT64_MAX must not wrap past the bound.
  if (footer_offset < kHeaderBytes || footer_offset > len - kMinTail) {
    error = "footer offset out of bounds";
    return false;
  }
  const unsigned char* footer = data + footer_offset;
  if (read_u32(footer) != kFooterMagic) {
    error = "bad footer magic";
    return false;
  }
  const std::uint32_t n_chunks = read_u32(footer + 4);
  const std::size_t footer_len =
      kFooterHeaderBytes + static_cast<std::size_t>(n_chunks) * kIndexEntryBytes;
  if (footer_len + 4 + kTrailerBytes != len - footer_offset) {
    error = "footer length disagrees with file size";
    return false;
  }
  if (crc32(footer, footer_len) != read_u32(footer + footer_len)) {
    error = "footer CRC mismatch";
    return false;
  }
  entries.reserve(n_chunks);
  std::uint64_t cursor = kHeaderBytes;
  for (std::uint32_t c = 0; c < n_chunks; ++c) {
    const unsigned char* p = footer + kFooterHeaderBytes + c * kIndexEntryBytes;
    ChunkIndexEntry entry;
    entry.offset = read_u64(p);
    entry.payload_len = read_u32(p + 8);
    entry.n_records = read_u32(p + 12);
    entry.min_tower = read_u32(p + 16);
    entry.max_tower = read_u32(p + 20);
    entry.min_minute = read_u32(p + 24);
    entry.max_minute = read_u32(p + 28);
    if (entry.offset != cursor ||
        entry.offset + entry.frame_len() > footer_offset) {
      error = "chunk " + std::to_string(c) + " frame out of bounds";
      entries.clear();
      return false;
    }
    cursor = entry.offset + entry.frame_len();
    entries.push_back(entry);
  }
  if (cursor != footer_offset) {
    error = "chunk frames do not tile the data section";
    entries.clear();
    return false;
  }
  return true;
}

IoMetrics& io_metrics() {
  static IoMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::instance();
    return IoMetrics{
        &registry.counter("cellscope.io.chunks_read"),
        &registry.counter("cellscope.io.chunks_skipped"),
        &registry.counter("cellscope.io.chunks_corrupt"),
        &registry.counter("cellscope.io.bytes_mapped"),
        &registry.histogram("cellscope.io.chunk_decode_ms"),
    };
  }();
  return metrics;
}

}  // namespace columnar

ColumnarTraceWriter::ColumnarTraceWriter(const std::string& path,
                                         std::size_t chunk_records)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      chunk_records_(chunk_records) {
  CS_CHECK_MSG(chunk_records_ >= 1, "chunk_records must be positive");
  if (CS_FAILPOINT("trace.write.fail"))
    throw IoError("failpoint trace.write.fail: refusing to write " + path);
  if (!out_) throw IoError("cannot open for writing: " + path);
  pending_.reserve(chunk_records_);
  write_bytes(columnar::encode_header());
}

ColumnarTraceWriter::~ColumnarTraceWriter() {
  try {
    finish();
  } catch (const Error&) {
    // Destructors must not throw; an unfinished file fails footer
    // validation on read, which is the detectable outcome we want.
  }
}

void ColumnarTraceWriter::append(std::span<const TrafficLog> logs) {
  CS_CHECK_MSG(!finished_, "append after finish on " + path_);
  for (const TrafficLog& log : logs) {
    pending_.push_back(log);
    if (pending_.size() >= chunk_records_) flush_chunk();
  }
}

void ColumnarTraceWriter::flush_chunk() {
  if (pending_.empty()) return;
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(pending_, frame, entry);
  entry.offset = offset_;
  write_bytes(frame);
  index_.push_back(entry);
  pending_.clear();
}

void ColumnarTraceWriter::write_bytes(const std::string& bytes) {
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out_) throw IoError("write failed: " + path_);
  offset_ += bytes.size();
}

void ColumnarTraceWriter::finish() {
  if (finished_) return;
  flush_chunk();
  write_bytes(columnar::encode_footer(index_, offset_));
  out_.close();
  if (!out_) throw IoError("close failed: " + path_);
  finished_ = true;
}

void write_trace_bin(const std::string& path,
                     const std::vector<TrafficLog>& logs,
                     std::size_t chunk_records) {
  ColumnarTraceWriter writer(path, chunk_records);
  writer.append(std::span<const TrafficLog>(logs));
  writer.finish();
}

}  // namespace cellscope
