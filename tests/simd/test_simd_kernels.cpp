// Oracle tests for the SIMD kernel layer (DESIGN.md §12).
//
// Two claims are pinned per kernel, for every ISA the CPU supports:
//   1. Correctness against a plainly-written oracle — the loop each
//      kernel replaced, spelled out here independently of src/simd/.
//      These comparisons are EXACT (EXPECT_EQ, no tolerance): the
//      kernels' contract is bit-compatibility with the scalar order,
//      not approximate agreement.
//   2. Cross-ISA bit-identity on hostile inputs (NaN, ±inf, remainder
//      lanes), compared bitwise since NaN != NaN.
// Dispatch plumbing (detect/force/parse/clamp) is covered at the end.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
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

TEST(SimdKernels, NormalizeMatchesElementwiseOracle) {
  // Every remainder class of the 4-wide (AVX2) and 2-wide (NEON) loops.
  for (std::size_t n = 1; n <= 9; ++n) {
    const auto v = random_doubles(n, 23);
    const double mean = 0.375;
    const double sd = 1.625;
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = (v[i] - mean) / sd;
    for (const simd::Isa isa : sweep_isas()) {
      ForcedIsa forced(isa);
      std::vector<double> got(n);
      simd::normalize(v.data(), n, mean, sd, got.data());
      EXPECT_EQ(want, got) << "n=" << n << " isa=" << simd::isa_name(isa);
    }
  }
}

TEST(SimdKernels, FoldMeanMatchesModuloAccumulationOracle) {
  // The loop fold_to_week replaced: week[s % period] += row[s], then a
  // single division — ascending s visits fold 0, 1, 2 per slot in order.
  for (const std::size_t period :
       {std::size_t{3}, std::size_t{5}, std::size_t{8}, std::size_t{1008}}) {
    const std::size_t folds = 3;
    const auto row = random_doubles(period * folds, 24);
    std::vector<double> want(period, 0.0);
    for (std::size_t s = 0; s < row.size(); ++s) want[s % period] += row[s];
    for (auto& v : want) v /= static_cast<double>(folds);
    for (const simd::Isa isa : sweep_isas()) {
      ForcedIsa forced(isa);
      std::vector<double> got(period);
      simd::fold_mean(row.data(), period, folds, got.data());
      EXPECT_EQ(want, got)
          << "period=" << period << " isa=" << simd::isa_name(isa);
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

  std::vector<std::vector<double>> norm_runs, fold_runs;
  std::vector<std::array<double, 32>> dot_runs;
  for (const simd::Isa isa : sweep_isas()) {
    ForcedIsa forced(isa);
    const double* rows[4] = {v.data(), v.data(), v.data(), v.data()};
    std::array<double, 32> dots{};
    simd::dot_4x8(rows, packed.data(), v.size(), dots.data());
    dot_runs.push_back(dots);
    std::vector<double> norm(v.size());
    simd::normalize(v.data(), v.size(), 0.5, 2.0, norm.data());
    norm_runs.push_back(std::move(norm));
    std::vector<double> fold(11);
    simd::fold_mean(packed.data(), 11, 4, fold.data());
    fold_runs.push_back(std::move(fold));
  }
  for (std::size_t r = 1; r < dot_runs.size(); ++r) {
    EXPECT_TRUE(bits_equal(dot_runs[0].data(), dot_runs[r].data(), 32));
    EXPECT_TRUE(bits_equal(norm_runs[0].data(), norm_runs[r].data(),
                           norm_runs[0].size()));
    EXPECT_TRUE(bits_equal(fold_runs[0].data(), fold_runs[r].data(),
                           fold_runs[0].size()));
  }
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
