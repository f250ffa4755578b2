#include "traffic/trace_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>

#include "common/error.h"
#include "common/failpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

using columnar::io_metrics;

MmapTraceReader::MmapTraceReader(const std::string& path) : path_(path) {
  if (CS_FAILPOINT("trace.read.fail"))
    throw IoError("failpoint trace.read.fail: refusing to read " + path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open for reading: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw IoError("cannot stat: " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    throw IoError("empty columnar trace file: " + path);
  }
  void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapped == MAP_FAILED) throw IoError("mmap failed: " + path);
  data_ = static_cast<const unsigned char*>(mapped);
  // The replay paths walk chunks front to back; tell the kernel so
  // readahead stays ahead of the decode loop.
  ::madvise(mapped, size_, MADV_SEQUENTIAL);

  std::string error;
  if (!columnar::check_header(data_, size_)) {
    ::munmap(mapped, size_);
    data_ = nullptr;
    throw IoError("bad columnar trace header: " + path);
  }
  if (!columnar::parse_footer(data_, size_, index_, error)) {
    ::munmap(mapped, size_);
    data_ = nullptr;
    throw IoError("bad columnar trace footer: " + path + " (" + error + ")");
  }
  for (const auto& entry : index_) record_count_ += entry.n_records;
  io_metrics().bytes_mapped->add(size_);
}

MmapTraceReader::~MmapTraceReader() {
  if (data_ != nullptr)
    ::munmap(const_cast<unsigned char*>(data_), size_);
}

std::span<const unsigned char> MmapTraceReader::chunk_frame(
    std::size_t i) const {
  const auto& entry = index_[i];
  return {data_ + entry.offset, entry.frame_len()};
}

bool MmapTraceReader::read_chunk(std::size_t i,
                                 std::vector<TrafficLog>& out) const {
  out.clear();
  const auto frame = chunk_frame(i);
  obs::ScopedTimer timer(io_metrics().decode_ms);
  // The CRC covers a frame, not its pairing with the footer entry.
  if (!columnar::decode_chunk_records(frame.data(), frame.size(), out) ||
      out.size() != index_[i].n_records) {
    io_metrics().chunks_corrupt->add(1);
    obs::log_warn("io.chunk_corrupt",
                  {{"path", path_}, {"chunk", i}, {"mode", "records"}});
    out.clear();
    return false;
  }
  io_metrics().chunks_read->add(1);
  return true;
}

bool MmapTraceReader::read_chunk_columns(std::size_t i,
                                         DecodedColumns& out) const {
  const auto frame = chunk_frame(i);
  obs::ScopedTimer timer(io_metrics().decode_ms);
  if (!columnar::decode_chunk_columns(frame.data(), frame.size(), out) ||
      out.size() != index_[i].n_records) {
    out.clear();
    io_metrics().chunks_corrupt->add(1);
    obs::log_warn("io.chunk_corrupt",
                  {{"path", path_}, {"chunk", i}, {"mode", "columns"}});
    return false;
  }
  io_metrics().chunks_read->add(1);
  return true;
}

std::uint64_t merge_trace_bin(const std::vector<std::string>& inputs,
                              const std::string& output) {
  if (CS_FAILPOINT("trace.write.fail"))
    throw IoError("failpoint trace.write.fail: refusing to write " + output);
  std::ofstream out(output, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open for writing: " + output);
  const std::string header = columnar::encode_header();
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  std::uint64_t offset = header.size();
  std::uint64_t records = 0;
  std::vector<columnar::ChunkIndexEntry> merged;
  for (const std::string& input : inputs) {
    MmapTraceReader reader(input);
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      const auto frame = reader.chunk_frame(i);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
      columnar::ChunkIndexEntry entry = reader.chunk(i);
      entry.offset = offset;
      merged.push_back(entry);
      offset += frame.size();
      records += entry.n_records;
    }
  }
  const std::string footer = columnar::encode_footer(merged, offset);
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out.close();
  if (!out) throw IoError("write failed: " + output);
  return records;
}

}  // namespace cellscope
