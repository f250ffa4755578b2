// AVX2 kernels (x86-64 only; this TU is compiled with -mavx2 and
// -ffp-contract=off — see src/simd/CMakeLists.txt).
//
// Bit-compatibility with kernels_scalar.cpp is by construction: every
// vector op below is the same IEEE operation the scalar reference runs,
// with the same operand order, and reductions vectorize across
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

void normalize_avx2(const double* v, std::size_t n, double mean, double sd,
                    double* out) {
  const __m256d vm = _mm256_set1_pd(mean);
  const __m256d vs = _mm256_set1_pd(sd);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_sub_pd(x, vm), vs));
  }
  for (; i < n; ++i) out[i] = (v[i] - mean) / sd;
}

void fold_mean_avx2(const double* row, std::size_t period, std::size_t folds,
                    double* out) {
  const __m256d denom = _mm256_set1_pd(static_cast<double>(folds));
  std::size_t j = 0;
  for (; j + 4 <= period; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t f = 0; f < folds; ++f)
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(row + f * period + j));
    _mm256_storeu_pd(out + j, _mm256_div_pd(acc, denom));
  }
  for (; j < period; ++j) {
    double acc = 0.0;
    for (std::size_t f = 0; f < folds; ++f) acc += row[f * period + j];
    out[j] = acc / static_cast<double>(folds);
  }
}

namespace {

/// Lane-exact naive complex product of two packed pairs: for each
/// complex lane, (re, im) = (xr·yr − xi·yi, xr·yi + xi·yr) with x's
/// components broadcast from `vx` — operand order matches the scalar
/// reference term for term.
inline __m256d complex_mul_pd(__m256d vx, __m256d vy) {
  const __m256d xr = _mm256_movedup_pd(vx);        // [xr0, xr0, xr1, xr1]
  const __m256d xi = _mm256_permute_pd(vx, 0xF);   // [xi0, xi0, xi1, xi1]
  const __m256d yswap = _mm256_permute_pd(vy, 0x5);  // [yi0, yr0, yi1, yr1]
  // even lanes: xr·yr − xi·yi ; odd lanes: xr·yi + xi·yr
  return _mm256_addsub_pd(_mm256_mul_pd(xr, vy), _mm256_mul_pd(xi, yswap));
}

}  // namespace

void fft_butterfly_avx2(std::complex<double>* a, std::complex<double>* b,
                        const std::complex<double>* w, std::size_t half) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const double* pw = reinterpret_cast<const double*>(w);
  std::size_t j = 0;
  for (; j + 2 <= half; j += 2) {
    const __m256d vb = _mm256_loadu_pd(pb + 2 * j);
    const __m256d vw = _mm256_loadu_pd(pw + 2 * j);
    // t1 = [br·wr, bi·wr], t2 = [bi·wi, br·wi]; addsub gives
    // even: br·wr − bi·wi, odd: bi·wr + br·wi — the scalar (vr, vi)
    // term for term, same operand order.
    const __m256d t1 = _mm256_mul_pd(vb, _mm256_movedup_pd(vw));
    const __m256d bswap = _mm256_permute_pd(vb, 0x5);  // [bi, br, ...]
    const __m256d t2 = _mm256_mul_pd(bswap, _mm256_permute_pd(vw, 0xF));
    const __m256d v = _mm256_addsub_pd(t1, t2);
    const __m256d u = _mm256_loadu_pd(pa + 2 * j);
    _mm256_storeu_pd(pa + 2 * j, _mm256_add_pd(u, v));
    _mm256_storeu_pd(pb + 2 * j, _mm256_sub_pd(u, v));
  }
  for (; j < half; ++j) {
    const double br = pb[2 * j];
    const double bi = pb[2 * j + 1];
    const double wr = pw[2 * j];
    const double wi = pw[2 * j + 1];
    const double vr = br * wr - bi * wi;
    const double vi = bi * wr + br * wi;
    const double ur = pa[2 * j];
    const double ui = pa[2 * j + 1];
    pa[2 * j] = ur + vr;
    pa[2 * j + 1] = ui + vi;
    pb[2 * j] = ur - vr;
    pb[2 * j + 1] = ui - vi;
  }
}

void complex_multiply_avx2(const std::complex<double>* x,
                           const std::complex<double>* y,
                           std::complex<double>* out, std::size_t n) {
  const double* px = reinterpret_cast<const double*>(x);
  const double* py = reinterpret_cast<const double*>(y);
  double* po = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d vx = _mm256_loadu_pd(px + 2 * i);
    const __m256d vy = _mm256_loadu_pd(py + 2 * i);
    _mm256_storeu_pd(po + 2 * i, complex_mul_pd(vx, vy));
  }
  for (; i < n; ++i) {
    const double xr = px[2 * i];
    const double xi = px[2 * i + 1];
    const double yr = py[2 * i];
    const double yi = py[2 * i + 1];
    const double re = xr * yr - xi * yi;
    const double im = xr * yi + xi * yr;
    po[2 * i] = re;
    po[2 * i + 1] = im;
  }
}

}  // namespace cellscope::simd::detail

#endif  // CELLSCOPE_SIMD_ENABLE_AVX2
