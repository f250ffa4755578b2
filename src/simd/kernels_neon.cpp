// NEON kernels (aarch64; this TU is compiled with -ffp-contract=off).
//
// Same bit-compatibility construction as the AVX2 TU, two doubles per
// vector: reductions vectorize across independent outputs (dot_4x8
// keeps one accumulator chain per lane), elementwise kernels map op for op,
// and no fused multiply-add intrinsics are used. NEON has no addsub, so
// the complex kernels negate the cross-term lane with an exact ±1.0
// multiply before a plain add — x − y and x + (−y) are the same IEEE
// operation for finite inputs.
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

void normalize_neon(const double* v, std::size_t n, double mean, double sd,
                    double* out) {
  const float64x2_t vm = vdupq_n_f64(mean);
  const float64x2_t vs = vdupq_n_f64(sd);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(out + i, vdivq_f64(vsubq_f64(vld1q_f64(v + i), vm), vs));
  for (; i < n; ++i) out[i] = (v[i] - mean) / sd;
}

void fold_mean_neon(const double* row, std::size_t period, std::size_t folds,
                    double* out) {
  const float64x2_t denom = vdupq_n_f64(static_cast<double>(folds));
  std::size_t j = 0;
  for (; j + 2 <= period; j += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    for (std::size_t f = 0; f < folds; ++f)
      acc = vaddq_f64(acc, vld1q_f64(row + f * period + j));
    vst1q_f64(out + j, vdivq_f64(acc, denom));
  }
  for (; j < period; ++j) {
    double acc = 0.0;
    for (std::size_t f = 0; f < folds; ++f) acc += row[f * period + j];
    out[j] = acc / static_cast<double>(folds);
  }
}

namespace {

/// Naive complex product of one packed (re, im) pair per vector, term
/// order matching the scalar reference: (xr·yr − xi·yi, xr·yi + xi·yr).
inline float64x2_t complex_mul_f64(float64x2_t vx, float64x2_t vy) {
  const float64x2_t sign = {-1.0, 1.0};  // exact: flips only the cross lane
  const float64x2_t xr = vdupq_laneq_f64(vx, 0);
  const float64x2_t xi = vdupq_laneq_f64(vx, 1);
  const float64x2_t yswap = vextq_f64(vy, vy, 1);  // [yi, yr]
  const float64x2_t t1 = vmulq_f64(xr, vy);        // [xr·yr, xr·yi]
  const float64x2_t t2 = vmulq_f64(xi, yswap);     // [xi·yi, xi·yr]
  return vaddq_f64(t1, vmulq_f64(t2, sign));
}

}  // namespace

void fft_butterfly_neon(std::complex<double>* a, std::complex<double>* b,
                        const std::complex<double>* w, std::size_t half) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const double* pw = reinterpret_cast<const double*>(w);
  const float64x2_t sign = {-1.0, 1.0};
  for (std::size_t j = 0; j < half; ++j) {
    const float64x2_t vb = vld1q_f64(pb + 2 * j);
    const float64x2_t vw = vld1q_f64(pw + 2 * j);
    // t1 = [br·wr, bi·wr], t2 = [bi·wi, br·wi] → v = (br·wr − bi·wi,
    // bi·wr + br·wi), the scalar (vr, vi) term for term.
    const float64x2_t t1 = vmulq_f64(vb, vdupq_laneq_f64(vw, 0));
    const float64x2_t bswap = vextq_f64(vb, vb, 1);
    const float64x2_t t2 = vmulq_f64(bswap, vdupq_laneq_f64(vw, 1));
    const float64x2_t v = vaddq_f64(t1, vmulq_f64(t2, sign));
    const float64x2_t u = vld1q_f64(pa + 2 * j);
    vst1q_f64(pa + 2 * j, vaddq_f64(u, v));
    vst1q_f64(pb + 2 * j, vsubq_f64(u, v));
  }
}

void complex_multiply_neon(const std::complex<double>* x,
                           const std::complex<double>* y,
                           std::complex<double>* out, std::size_t n) {
  const double* px = reinterpret_cast<const double*>(x);
  const double* py = reinterpret_cast<const double*>(y);
  double* po = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t vx = vld1q_f64(px + 2 * i);
    const float64x2_t vy = vld1q_f64(py + 2 * i);
    vst1q_f64(po + 2 * i, complex_mul_f64(vx, vy));
  }
}

}  // namespace cellscope::simd::detail

#endif  // CELLSCOPE_SIMD_ENABLE_NEON
