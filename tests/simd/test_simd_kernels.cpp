// Oracle tests for the SIMD kernel layer (DESIGN.md §12).
//
// Two claims are pinned for dot_4x8, for every ISA the CPU supports:
//   1. Correctness against a plainly-written oracle — the sequential dot
//      product, spelled out here independently of src/simd/. These
//      comparisons are EXACT (EXPECT_EQ, no tolerance): the kernel's
//      contract is bit-compatibility with the scalar order, not
//      approximate agreement.
//   2. Cross-ISA bit-identity on hostile inputs (NaN, ±inf), compared
//      bitwise since NaN != NaN.
// Dispatch plumbing (detect/force/parse/clamp) is covered at the end.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "simd/simd.h"

namespace cellscope {
namespace {

struct ForcedIsa {
  explicit ForcedIsa(simd::Isa isa) { simd::force_isa(isa); }
  ~ForcedIsa() { simd::force_isa(std::nullopt); }
};

std::vector<simd::Isa> sweep_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::detected_isa() != simd::Isa::kScalar)
    isas.push_back(simd::detected_isa());
  return isas;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.normal();
  return out;
}

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(SimdKernels, Dot4x8MatchesSequentialDotOracle) {
  constexpr std::size_t kRows = simd::kDotBlockRows;
  constexpr std::size_t kCols = simd::kDotBlockCols;
  for (const std::size_t dim : {std::size_t{1}, std::size_t{3},
                                std::size_t{7}, std::size_t{32},
                                std::size_t{1008}}) {
    // Rows sit `stride` apart with junk between them; the kernel must
    // read only the first dim of each.
    const std::size_t stride = dim + 5;
    const auto a = random_doubles(kRows * stride, 21);
    const double* rows[kRows];
    for (std::size_t r = 0; r < kRows; ++r) rows[r] = a.data() + r * stride;
    const auto cols = random_doubles(kCols * dim, 22);  // row-major columns
    // Pack interleaved the way the distance kernel does.
    std::vector<double> packed(kCols * dim);
    for (std::size_t d = 0; d < dim; ++d)
      for (std::size_t c = 0; c < kCols; ++c)
        packed[kCols * d + c] = cols[c * dim + d];
    double want[kRows * kCols];
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < kCols; ++c) {
        double dot = 0.0;
        for (std::size_t d = 0; d < dim; ++d)
          dot += a[r * stride + d] * cols[c * dim + d];
        want[kCols * r + c] = dot;
      }
    }
    for (const simd::Isa isa : sweep_isas()) {
      ForcedIsa forced(isa);
      double got[kRows * kCols];
      simd::dot_4x8(rows, packed.data(), dim, got);
      for (std::size_t k = 0; k < kRows * kCols; ++k)
        EXPECT_EQ(want[k], got[k])
            << "dim=" << dim << " row=" << k / kCols << " col=" << k % kCols
            << " isa=" << simd::isa_name(isa);
    }
  }
}

TEST(SimdKernels, NonFiniteInputsBitIdenticalAcrossIsas) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto v = random_doubles(11, 28);
  v[0] = kNan;
  v[5] = kInf;
  v[10] = -kInf;
  auto packed = random_doubles(8 * 11, 29);
  packed[7] = kNan;
  packed[21] = -kInf;
  packed[60] = kInf;

  std::vector<std::array<double, 32>> dot_runs;
  for (const simd::Isa isa : sweep_isas()) {
    ForcedIsa forced(isa);
    const double* rows[4] = {v.data(), v.data(), v.data(), v.data()};
    std::array<double, 32> dots{};
    simd::dot_4x8(rows, packed.data(), v.size(), dots.data());
    dot_runs.push_back(dots);
  }
  for (std::size_t r = 1; r < dot_runs.size(); ++r)
    EXPECT_TRUE(bits_equal(dot_runs[0].data(), dot_runs[r].data(), 32));
}

TEST(SimdDispatch, NamesRoundTripAndUnknownsRejected) {
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kNeon, simd::Isa::kAvx2}) {
    const auto parsed = simd::parse_isa(simd::isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(simd::parse_isa("auto").has_value());
  EXPECT_FALSE(simd::parse_isa("").has_value());
  EXPECT_FALSE(simd::parse_isa("avx512").has_value());
}

TEST(SimdDispatch, ForceIsaOverridesAndClampsToHardware) {
  const simd::Isa detected = simd::detected_isa();
  {
    ForcedIsa forced(simd::Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  }
  // A request for an ISA this CPU lacks must clamp to what it has —
  // never dispatch into unsupported instructions.
  const simd::Isa foreign = detected == simd::Isa::kAvx2 ? simd::Isa::kNeon
                                                         : simd::Isa::kAvx2;
  {
    ForcedIsa forced(foreign);
    EXPECT_EQ(simd::active_isa(), detected);
  }
  simd::force_isa(std::nullopt);
}

}  // namespace
}  // namespace cellscope
