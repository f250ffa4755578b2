// Condensed pairwise Euclidean distance matrix.
//
// Hierarchical clustering over thousands of towers needs all pairwise
// distances; the condensed (upper-triangle) float layout halves memory and
// keeps the paper's 9,600-tower scale within laptop RAM (DESIGN.md §5).
//
// compute() is the O(n²·dim) hot kernel of the analytics core: squared
// norms are precomputed, and the condensed triangle is filled by a
// cache-blocked tile kernel (d² = |a|² + |b|² − 2a·b) that packs column
// blocks and feeds simd::dot_4x8, with row tiles distributed over an
// optional ThreadPool. Tiles partition the output, and every entry's
// dot-product reduction runs in a fixed order, so the result is
// bit-identical for any worker count and any SIMD ISA, including the
// serial path (DESIGN.md §8, §12).
//
// Accessors are inline and, in release builds, unchecked (CS_DCHECK). The
// NN-chain linkage does not use them: it takes the storage with release()
// and walks the raw triangle itself.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"

namespace cellscope {

class ThreadPool;

/// Symmetric zero-diagonal distance matrix stored as the condensed upper
/// triangle in float precision.
class DistanceMatrix {
 public:
  /// Computes all pairwise Euclidean distances between rows of `points`
  /// (equal-length rows, n >= 2). With a pool, row tiles are computed in
  /// parallel; the result is bit-identical to the serial (nullptr) path.
  static DistanceMatrix compute(const std::vector<std::vector<double>>& points,
                                ThreadPool* pool = nullptr);

  /// Builds from explicit entries; `condensed` must have n(n-1)/2 values
  /// laid out row-major (d(0,1), d(0,2), ..., d(1,2), ...).
  DistanceMatrix(std::size_t n, std::vector<float> condensed);

  /// Distance between items i and j (0 when i == j). Bounds are checked in
  /// debug builds only.
  double operator()(std::size_t i, std::size_t j) const {
    if (i == j) {
      CS_DCHECK_MSG(i < n_, "index out of range");
      return 0.0;
    }
    return condensed_[index_of(i, j)];
  }

  std::size_t n() const { return n_; }

  /// The condensed triangle as a vector (for equivalence tests and I/O);
  /// entry (i, j) with i < j lives at i*n - i*(i+1)/2 + (j - i - 1).
  const std::vector<float>& condensed() const { return condensed_; }

  /// Moves the condensed triangle out (the NN-chain linkage takes it as
  /// its working storage); the matrix is left empty.
  std::vector<float> release() && { return std::move(condensed_); }

 private:
  std::size_t index_of(std::size_t i, std::size_t j) const {
    CS_DCHECK_MSG(i < n_ && j < n_ && i != j, "invalid index pair");
    if (i > j) std::swap(i, j);
    // Offset of row i in the condensed upper triangle.
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }

  std::size_t n_;
  std::vector<float> condensed_;
};

}  // namespace cellscope
