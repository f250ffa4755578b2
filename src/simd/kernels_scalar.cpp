// Canonical scalar kernels — the reference every vector ISA must match
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

void normalize_scalar(const double* v, std::size_t n, double mean, double sd,
                      double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (v[i] - mean) / sd;
}

void fold_mean_scalar(const double* row, std::size_t period, std::size_t folds,
                      double* out) {
  const double denom = static_cast<double>(folds);
  for (std::size_t j = 0; j < period; ++j) {
    double acc = 0.0;  // start from +0.0 like the classic += fold loop
    for (std::size_t f = 0; f < folds; ++f) acc += row[f * period + j];
    out[j] = acc / denom;
  }
}

void fft_butterfly_scalar(std::complex<double>* a, std::complex<double>* b,
                          const std::complex<double>* w, std::size_t half) {
  // std::complex<double> is layout-compatible with double[2]
  // ([complex.numbers.general]); the raw-double form keeps the product
  // naive (no Annex G repair branch) so it matches the vector lanes on
  // every input, finite or not.
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const double* pw = reinterpret_cast<const double*>(w);
  for (std::size_t j = 0; j < half; ++j) {
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

void complex_multiply_scalar(const std::complex<double>* x,
                             const std::complex<double>* y,
                             std::complex<double>* out, std::size_t n) {
  const double* px = reinterpret_cast<const double*>(x);
  const double* py = reinterpret_cast<const double*>(y);
  double* po = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < n; ++i) {
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
