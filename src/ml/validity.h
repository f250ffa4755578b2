// Cluster validity indices — the paper's metric tuner (§3.2).
//
// The Davies-Bouldin index drives the identifier's stop condition: the
// paper sweeps the clustering threshold and keeps the cut minimizing DBI,
// which lands at five clusters (Fig. 6a).
#pragma once

#include <cstddef>
#include <vector>

#include "ml/hierarchical.h"

namespace cellscope {

class ThreadPool;

/// Per-cluster centroids of labeled points ([k][dim]).
std::vector<std::vector<double>> cluster_centroids(
    const std::vector<std::vector<double>>& points,
    const std::vector<int>& labels);

/// Davies-Bouldin index (lower is better), exactly the paper's
/// formulation: Si = mean Euclidean distance of cluster members to their
/// centroid, Mij = centroid distance, DBI = mean over i of
/// max_j (Si+Sj)/Mij. Requires >= 2 clusters, each non-empty.
double davies_bouldin(const std::vector<std::vector<double>>& points,
                      const std::vector<int>& labels);

/// One row of the metric tuner's sweep.
struct DbiSweepPoint {
  std::size_t k = 0;          ///< number of clusters at this cut
  double threshold = 0.0;     ///< merge distance where this k first holds
  double dbi = 0.0;
  /// False when the cut contains a cluster below the noise floor —
  /// singleton "clusters" have zero scatter and game the DBI, so the
  /// tuner refuses cuts with clusters smaller than min_cluster_size
  /// (mirroring the paper's §5.2 density-based noise rejection).
  bool valid = true;
};

/// Sweeps cluster counts [k_min, k_max] over a dendrogram, computing DBI
/// at each cut — the data behind Fig. 6(a). `threshold` is the distance of
/// the merge that would collapse k to k-1 clusters, i.e. the upper edge of
/// stop thresholds that still yield k clusters (the paper reports 16.33
/// for its optimal five-cluster cut).
///
/// One descending k_max→k_min pass replays each merge exactly once,
/// carrying per-cluster member lists, coordinate sums, and scatter across
/// cuts; only the cluster touched by a merge is recomputed. Per-cluster
/// accumulations run over members in ascending index order — the same
/// reduction order as davies_bouldin() — so every DbiSweepPoint matches a
/// per-k cut_k + davies_bouldin recomputation. With a pool, the per-k
/// cluster evaluations and the pairwise-centroid step run in parallel
/// (bit-identical to the serial path; DESIGN.md §8).
std::vector<DbiSweepPoint> dbi_sweep(
    const Dendrogram& dendrogram,
    const std::vector<std::vector<double>>& points, std::size_t k_min,
    std::size_t k_max, std::size_t min_cluster_size = 1,
    ThreadPool* pool = nullptr);

/// The sweep entry with minimal DBI among valid cuts (falls back to all
/// cuts when none is valid).
DbiSweepPoint best_cut(const std::vector<DbiSweepPoint>& sweep);

}  // namespace cellscope
