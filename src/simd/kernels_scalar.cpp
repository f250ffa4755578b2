// Canonical scalar kernel — the reference every vector ISA must match
// bit for bit. This TU is compiled with -ffp-contract=off so the compiler
// cannot fuse the mul/add pairs into FMAs on any target; the accumulation
// orders written here ARE the contract.
#include "simd/kernels.h"

namespace cellscope::simd::detail {

void dot_4x8_scalar(const double* const rows[4], const double* packed,
                    std::size_t dim, double* out) {
  double acc[4][8] = {};  // 32 independent chains, each from +0.0
  for (std::size_t d = 0; d < dim; ++d) {
    const double* col = packed + 8 * d;
    for (std::size_t r = 0; r < 4; ++r) {
      const double x = rows[r][d];
      for (std::size_t c = 0; c < 8; ++c) acc[r][c] += x * col[c];
    }
  }
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c) out[8 * r + c] = acc[r][c];
}

}  // namespace cellscope::simd::detail
