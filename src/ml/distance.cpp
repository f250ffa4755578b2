#include "ml/distance.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "simd/simd.h"

namespace cellscope {

namespace {

/// Rows per parallel tile, the unit of work handed to the pool. All of a
/// tile's rows sweep each packed column block, so taller tiles amortize
/// the packing further; at 9,600 towers 128 rows still leave 75 tiles for
/// the pool to balance the triangle with.
constexpr std::size_t kTileRows = 128;

/// Columns per packed block: 64 columns × 1008 doubles (~504 KiB) stay
/// L2-resident while the tile's rows are swept across them.
constexpr std::size_t kBlockCols = 64;

constexpr std::size_t kMr = simd::kDotBlockRows;
constexpr std::size_t kNr = simd::kDotBlockCols;

static_assert(kTileRows % kMr == 0 && kBlockCols % kNr == 0,
              "tiles and blocks must hold whole micro-kernel blocks");

}  // namespace

DistanceMatrix DistanceMatrix::compute(
    const std::vector<std::vector<double>>& points, ThreadPool* pool) {
  const std::size_t n = points.size();
  CS_CHECK_MSG(n >= 2, "distance matrix needs at least two points");
  const std::size_t dim = points[0].size();
  for (const auto& p : points)
    CS_CHECK_MSG(p.size() == dim, "all points must have equal dimension");

  auto& registry = obs::MetricsRegistry::instance();
  obs::ScopedTimer timer(registry.histogram("cellscope.ml.distance_ms"));

  // Squared norms up front, so the tile kernel below is pure dot-product
  // arithmetic (d² = |a|² + |b|² − 2a·b).
  std::vector<double> norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    double norm = 0.0;
    for (const double v : points[i]) norm += v * v;
    norms[i] = norm;
  }

  std::vector<float> condensed(n * (n - 1) / 2);
  float* out = condensed.data();

  // One tile = kTileRows consecutive rows of the condensed triangle. Every
  // (i, j) entry is computed by exactly one tile, and its dot product is
  // one ascending-d chain inside simd::dot_4x8 whatever the ISA, so the
  // output depends neither on how tiles map to workers nor on dispatch.
  auto process_tile = [&](std::size_t t) {
    const std::size_t i0 = t * kTileRows;
    const std::size_t i1 = std::min(n, i0 + kTileRows);
    // The current column block, packed GEMM-style in groups of kNr:
    // packed[g][kNr*d + c] = column (jb + kNr*g + c) at dimension d, zero
    // past the last column.
    std::vector<double> packed(kBlockCols * dim);
    double dots[kMr * kNr];
    for (std::size_t jb = i0; jb < n; jb += kBlockCols) {
      const std::size_t ngroups =
          (std::min(n, jb + kBlockCols) - jb + kNr - 1) / kNr;
      for (std::size_t g = 0; g < ngroups; ++g) {
        double* pk = packed.data() + g * kNr * dim;
        for (std::size_t c = 0; c < kNr; ++c) {
          const std::size_t j = jb + g * kNr + c;
          if (j < n) {
            const double* col = points[j].data();
            for (std::size_t d = 0; d < dim; ++d) pk[kNr * d + c] = col[d];
          } else {
            for (std::size_t d = 0; d < dim; ++d) pk[kNr * d + c] = 0.0;
          }
        }
      }
      for (std::size_t ib = i0; ib < i1; ib += kMr) {
        // A last block short of kMr rows repeats row n-1 in the spare
        // slots; their outputs are never emitted.
        const double* rows[kMr];
        for (std::size_t r = 0; r < kMr; ++r)
          rows[r] = points[std::min(ib + r, n - 1)].data();
        for (std::size_t g = 0; g < ngroups; ++g) {
          const std::size_t jg = jb + g * kNr;
          if (jg + kNr <= ib + 1) continue;  // wholly on or below the diagonal
          simd::dot_4x8(rows, packed.data() + g * kNr * dim, dim, dots);
          for (std::size_t r = 0; r < kMr && ib + r < i1; ++r) {
            const std::size_t i = ib + r;
            float* row = out + i * n - i * (i + 1) / 2;  // row[j - i - 1]
            for (std::size_t c = 0; c < kNr && jg + c < n; ++c) {
              const std::size_t j = jg + c;
              if (j <= i) continue;
              // Clamp: the norm identity can go fractionally negative for
              // near-coincident points.
              const double d2 = norms[i] + norms[j] - 2.0 * dots[kNr * r + c];
              row[j - i - 1] =
                  static_cast<float>(std::sqrt(d2 > 0.0 ? d2 : 0.0));
            }
          }
        }
      }
    }
  };

  const std::size_t n_tiles = (n + kTileRows - 1) / kTileRows;
  for_each_index(pool, n_tiles, process_tile);

  registry.counter("cellscope.ml.distance_pairs").add(condensed.size());
  return DistanceMatrix(n, std::move(condensed));
}

DistanceMatrix::DistanceMatrix(std::size_t n, std::vector<float> condensed)
    : n_(n), condensed_(std::move(condensed)) {
  CS_CHECK_MSG(n >= 2, "distance matrix needs n >= 2");
  CS_CHECK_MSG(condensed_.size() == n * (n - 1) / 2,
               "condensed storage must have n(n-1)/2 entries");
}

}  // namespace cellscope
