// NEON kernel (aarch64; this TU is compiled with -ffp-contract=off).
//
// Same bit-compatibility construction as the AVX2 TU, two doubles per
// vector: the reduction vectorizes across independent outputs (dot_4x8
// keeps one accumulator chain per lane), and no fused multiply-add
// intrinsics are used.
#include "simd/kernels.h"

#ifdef CELLSCOPE_SIMD_ENABLE_NEON

#include <arm_neon.h>

namespace cellscope::simd::detail {

void dot_4x8_neon(const double* const rows[4], const double* packed,
                  std::size_t dim, double* out) {
  // acc[r][q] holds columns 2q, 2q+1 of row r: sixteen independent add
  // chains, one output per lane, within NEON's 32 vector registers.
  float64x2_t acc[4][4];
  for (auto& row : acc)
    for (auto& v : row) v = vdupq_n_f64(0.0);
  for (std::size_t d = 0; d < dim; ++d) {
    const float64x2_t col[4] = {
        vld1q_f64(packed + 8 * d), vld1q_f64(packed + 8 * d + 2),
        vld1q_f64(packed + 8 * d + 4), vld1q_f64(packed + 8 * d + 6)};
    for (std::size_t r = 0; r < 4; ++r) {
      const float64x2_t x = vdupq_n_f64(rows[r][d]);
      for (std::size_t q = 0; q < 4; ++q)
        acc[r][q] = vaddq_f64(acc[r][q], vmulq_f64(x, col[q]));
    }
  }
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t q = 0; q < 4; ++q)
      vst1q_f64(out + 8 * r + 2 * q, acc[r][q]);
}

}  // namespace cellscope::simd::detail

#endif  // CELLSCOPE_SIMD_ENABLE_NEON
