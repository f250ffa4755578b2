// AVX2 kernel (x86-64 only; this TU is compiled with -mavx2 and
// -ffp-contract=off — see src/simd/CMakeLists.txt).
//
// Bit-compatibility with kernels_scalar.cpp is by construction: every
// vector op below is the same IEEE operation the scalar reference runs,
// with the same operand order, and the reduction vectorizes across
// independent outputs instead of reassociating — dot_4x8 keeps one
// accumulator chain per output lane, exactly the scalar per-column order.
// No FMA intrinsics anywhere (mul then add, two roundings, like scalar).
#include "simd/kernels.h"

#ifdef CELLSCOPE_SIMD_ENABLE_AVX2

#include <immintrin.h>

namespace cellscope::simd::detail {

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

void dot_4x8_avx2(const double* const rows[4], const double* packed,
                  std::size_t dim, double* out) {
  // Eight accumulators (4 rows × 2 four-column halves) so eight
  // independent add chains are in flight: one chain alone would stall on
  // add latency every step. Each lane is still one output's chain.
  const double* a0 = rows[0];
  const double* a1 = rows[1];
  const double* a2 = rows[2];
  const double* a3 = rows[3];
  __m256d c0l = _mm256_setzero_pd(), c0h = _mm256_setzero_pd();
  __m256d c1l = _mm256_setzero_pd(), c1h = _mm256_setzero_pd();
  __m256d c2l = _mm256_setzero_pd(), c2h = _mm256_setzero_pd();
  __m256d c3l = _mm256_setzero_pd(), c3h = _mm256_setzero_pd();
  for (std::size_t d = 0; d < dim; ++d) {
    const __m256d lo = _mm256_loadu_pd(packed + 8 * d);
    const __m256d hi = _mm256_loadu_pd(packed + 8 * d + 4);
    __m256d x = _mm256_broadcast_sd(a0 + d);
    c0l = _mm256_add_pd(c0l, _mm256_mul_pd(x, lo));
    c0h = _mm256_add_pd(c0h, _mm256_mul_pd(x, hi));
    x = _mm256_broadcast_sd(a1 + d);
    c1l = _mm256_add_pd(c1l, _mm256_mul_pd(x, lo));
    c1h = _mm256_add_pd(c1h, _mm256_mul_pd(x, hi));
    x = _mm256_broadcast_sd(a2 + d);
    c2l = _mm256_add_pd(c2l, _mm256_mul_pd(x, lo));
    c2h = _mm256_add_pd(c2h, _mm256_mul_pd(x, hi));
    x = _mm256_broadcast_sd(a3 + d);
    c3l = _mm256_add_pd(c3l, _mm256_mul_pd(x, lo));
    c3h = _mm256_add_pd(c3h, _mm256_mul_pd(x, hi));
  }
  _mm256_storeu_pd(out, c0l);
  _mm256_storeu_pd(out + 4, c0h);
  _mm256_storeu_pd(out + 8, c1l);
  _mm256_storeu_pd(out + 12, c1h);
  _mm256_storeu_pd(out + 16, c2l);
  _mm256_storeu_pd(out + 20, c2h);
  _mm256_storeu_pd(out + 24, c3l);
  _mm256_storeu_pd(out + 28, c3h);
}

}  // namespace cellscope::simd::detail

#endif  // CELLSCOPE_SIMD_ENABLE_AVX2
