// Perf: the SIMD kernel layer, scalar dispatch vs the widest detected
// ISA (DESIGN.md §12).
//
// Every benchmark here runs twice — Arg(0) forces scalar dispatch,
// Arg(1) the widest ISA the CPU reports — so the committed baseline
// pins both the absolute times and the vector-vs-scalar ratio. The
// outputs are bit-identical between the two runs by the §12 contract;
// only the wall time may differ. The distance-tile pair is the headline,
// with the 4×8 micro-kernel that feeds it timed alone beside it.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <vector>

#include "common/rng.h"
#include "ml/distance.h"
#include "simd/simd.h"

namespace {

using namespace cellscope;

constexpr std::size_t kDim = 1008;  // mean-week fold length

simd::Isa isa_for(int arg) {
  return arg == 0 ? simd::Isa::kScalar : simd::detected_isa();
}

/// Forces dispatch for the duration of one benchmark run and labels the
/// row with the ISA it actually measured.
struct IsaScope {
  IsaScope(benchmark::State& state) {
    const simd::Isa isa = isa_for(static_cast<int>(state.range(0)));
    simd::force_isa(isa);
    state.SetLabel(std::string(simd::isa_name(isa)));
  }
  ~IsaScope() { simd::force_isa(std::nullopt); }
};

const std::vector<std::vector<double>>& kernel_points() {
  static const std::vector<std::vector<double>> points = [] {
    const std::size_t n = bench::bench_towers();
    Rng rng(bench::bench_seed());
    std::vector<std::vector<double>> p(n, std::vector<double>(kDim));
    for (auto& row : p)
      for (auto& v : row) v = rng.normal();
    return p;
  }();
  return points;
}

/// The headline pair: the blocked distance kernel (serial, so the delta
/// is pure kernel arithmetic, not pool scheduling).
void BM_SimdDistanceTile(benchmark::State& state) {
  const auto& points = kernel_points();
  IsaScope scope(state);
  for (auto _ : state) {
    auto d = DistanceMatrix::compute(points);
    benchmark::DoNotOptimize(d);
  }
  const auto n = points.size();
  state.SetItemsProcessed(static_cast<std::int64_t>(n * (n - 1) / 2) *
                          state.iterations());
}
BENCHMARK(BM_SimdDistanceTile)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The distance tile's register-blocked micro-kernel alone: 4 rows × 8
/// packed columns over one folded week, 32 dot products per call.
void BM_SimdDot4x8(benchmark::State& state) {
  const auto& points = kernel_points();
  std::vector<double> packed(simd::kDotBlockCols * kDim);
  for (std::size_t d = 0; d < kDim; ++d)
    for (std::size_t c = 0; c < simd::kDotBlockCols; ++c)
      packed[simd::kDotBlockCols * d + c] = points[c % points.size()][d];
  const double* rows[simd::kDotBlockRows];
  for (std::size_t r = 0; r < simd::kDotBlockRows; ++r)
    rows[r] = points[r % points.size()].data();
  double out[simd::kDotBlockRows * simd::kDotBlockCols];
  IsaScope scope(state);
  for (auto _ : state) {
    simd::dot_4x8(rows, packed.data(), kDim, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
                              simd::kDotBlockRows * simd::kDotBlockCols) *
                          state.iterations());
}
BENCHMARK(BM_SimdDot4x8)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

CELLSCOPE_BENCH_JSON("perf_simd");
