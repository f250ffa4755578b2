#include "common/checksum.h"

#include <array>
#include <cstring>

namespace cellscope {

namespace {

/// Bytes consumed per step of the sliced loop.
constexpr std::size_t kSlice = 16;

using CrcTables = std::array<std::array<std::uint32_t, 256>, kSlice>;

/// Slice-by-16 lookup tables for the reflected polynomial, built once at
/// first use. tables[0] is the classic byte-at-a-time table; tables[k][b]
/// is the CRC register after byte `b` is followed by k zero bytes, so one
/// step folds 16 input bytes with 16 independent lookups.
CrcTables build_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlice; ++k)
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  return tables;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const CrcTables t = build_crc_tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  // Byte-wise register arithmetic (no word loads), so the result does not
  // depend on host endianness or alignment.
  for (; n >= kSlice; n -= kSlice, bytes += kSlice) {
    unsigned char b[kSlice];
    std::memcpy(b, bytes, kSlice);
    c = t[15][b[0] ^ (c & 0xFFu)] ^ t[14][b[1] ^ ((c >> 8) & 0xFFu)] ^
        t[13][b[2] ^ ((c >> 16) & 0xFFu)] ^ t[12][b[3] ^ (c >> 24)] ^
        t[11][b[4]] ^ t[10][b[5]] ^ t[9][b[6]] ^ t[8][b[7]] ^
        t[7][b[8]] ^ t[6][b[9]] ^ t[5][b[10]] ^ t[4][b[11]] ^
        t[3][b[12]] ^ t[2][b[13]] ^ t[1][b[14]] ^ t[0][b[15]];
  }
  for (; n > 0; --n, ++bytes) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace cellscope
