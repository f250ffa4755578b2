#include "common/checksum.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace cellscope {
namespace {

TEST(Crc32, KnownAnswerVectors) {
  // The CRC-32/IEEE check value ("123456789") and friends.
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc"), 0x352441C2u);
}

TEST(Crc32, SeedChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto whole = crc32(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const auto first = crc32(data.data(), cut);
    const auto chained = crc32(data.data() + cut, data.size() - cut, first);
    EXPECT_EQ(chained, whole) << "cut at " << cut;
  }
}

TEST(Crc32, SingleBitFlipAlwaysChangesChecksum) {
  const std::string data(128, '\x5a');
  const auto clean = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(crc32(flipped), clean) << "byte " << byte << " bit " << bit;
    }
  }
}

/// The byte-at-a-time CRC-32 the sliced implementation must reproduce.
std::uint32_t bytewise_crc32(const unsigned char* data, std::size_t n,
                             std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(gen());
  return bytes;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  // Every length across several 16-byte blocks plus a tail, at every
  // start offset within a block, so unaligned reads are exercised.
  const auto pool = random_bytes(300 + 16, 2015);
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (std::size_t len = 0; len <= 300; ++len)
      ASSERT_EQ(crc32(pool.data() + offset, len),
                bytewise_crc32(pool.data() + offset, len))
          << "offset " << offset << " length " << len;

  const auto big = random_bytes(std::size_t{1} << 20, 2017);
  EXPECT_EQ(crc32(big.data(), big.size()),
            bytewise_crc32(big.data(), big.size()));

  // A chained seed cut at every position, inside and across blocks.
  const auto data = random_bytes(100, 7);
  const auto whole = bytewise_crc32(data.data(), data.size());
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const auto first = crc32(data.data(), cut);
    ASSERT_EQ(first, bytewise_crc32(data.data(), cut)) << "cut at " << cut;
    EXPECT_EQ(crc32(data.data() + cut, data.size() - cut, first), whole)
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace cellscope
