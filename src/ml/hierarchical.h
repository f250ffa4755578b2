// Agglomerative hierarchical clustering — the paper's pattern identifier
// (§3.2): bottom-up merging of the nearest clusters under average-linkage
// Euclidean distance, stopped by a distance threshold (the Davies-Bouldin
// sweep in ml/validity.h reports the threshold of each cluster count).
//
// Implementation: the nearest-neighbor-chain algorithm with Lance-Williams
// distance updates — O(n²) time and exact for the reducible linkages
// offered here (single, complete, average), versus the naive O(n³) merge
// loop. The active clusters are dense slots of a condensed triangle that is
// repacked in place as clusters merge, so scans and updates shrink with the
// active count. One dendrogram supports cutting at any cluster count, so
// the Davies-Bouldin sweep of Fig. 6(a) clusters once and cuts many times.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/distance.h"

namespace cellscope {

/// Cluster-distance definitions (the paper uses average linkage).
enum class Linkage {
  kSingle,
  kComplete,
  kAverage,
};

/// One merge of the dendrogram. `a` and `b` are *representative leaf
/// indices* (the smallest member) of the two clusters joined at the given
/// linkage distance — a representation that lets flat cuts replay merges
/// with a union-find in any distance order.
struct Merge {
  std::size_t a = 0;
  std::size_t b = 0;
  double distance = 0.0;
};

/// The full dendrogram of an agglomerative clustering run.
class Dendrogram {
 public:
  /// Clusters the items of a distance matrix. The matrix is consumed: its
  /// storage becomes the linkage's working triangle, which the algorithm
  /// updates and repacks in place (pass it by move to avoid a copy).
  static Dendrogram run(DistanceMatrix distances, Linkage linkage);

  /// The n-1 merges, sorted by non-decreasing distance.
  const std::vector<Merge>& merges() const { return merges_; }

  /// Number of leaves (items).
  std::size_t n() const { return n_; }

  /// Flat clustering with exactly k clusters (1 <= k <= n). Labels are
  /// dense 0..k-1, ordered by each cluster's smallest member index.
  std::vector<int> cut_k(std::size_t k) const;

 private:
  Dendrogram(std::size_t n, std::vector<Merge> merges);

  /// Labels after applying the first `m` merges (in sorted order).
  std::vector<int> labels_after(std::size_t m) const;

  std::size_t n_;
  std::vector<Merge> merges_;
};

/// Number of clusters in a label vector (labels must be dense 0..k-1).
std::size_t num_clusters(const std::vector<int>& labels);

}  // namespace cellscope
