#include "ml/validity.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/error.h"
#include "common/stats.h"
#include "mapred/thread_pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

std::vector<std::vector<double>> cluster_centroids(
    const std::vector<std::vector<double>>& points,
    const std::vector<int>& labels) {
  CS_CHECK_MSG(points.size() == labels.size() && !points.empty(),
               "points and labels must match and be non-empty");
  const std::size_t k = num_clusters(labels);
  const std::size_t dim = points[0].size();
  std::vector<std::vector<double>> centroids(k, std::vector<double>(dim, 0.0));
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<std::size_t>(labels[i]);
    ++counts[c];
    CS_CHECK_MSG(points[i].size() == dim, "inconsistent point dimension");
    for (std::size_t d = 0; d < dim; ++d) centroids[c][d] += points[i][d];
  }
  for (std::size_t c = 0; c < k; ++c) {
    CS_CHECK_MSG(counts[c] > 0, "empty cluster");
    for (auto& v : centroids[c]) v /= static_cast<double>(counts[c]);
  }
  return centroids;
}

double davies_bouldin(const std::vector<std::vector<double>>& points,
                      const std::vector<int>& labels) {
  const auto centroids = cluster_centroids(points, labels);
  const std::size_t k = centroids.size();
  CS_CHECK_MSG(k >= 2, "DBI requires at least two clusters");

  // Si: mean member distance to the centroid.
  std::vector<double> scatter(k, 0.0);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<std::size_t>(labels[i]);
    scatter[c] += euclidean_distance(points[i], centroids[c]);
    ++counts[c];
  }
  for (std::size_t c = 0; c < k; ++c)
    scatter[c] /= static_cast<double>(counts[c]);

  double dbi = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    double worst = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const double m = euclidean_distance(centroids[i], centroids[j]);
      CS_CHECK_MSG(m > 0.0, "coincident centroids");
      worst = std::max(worst, (scatter[i] + scatter[j]) / m);
    }
    dbi += worst;
  }
  return dbi / static_cast<double>(k);
}

std::vector<DbiSweepPoint> dbi_sweep(
    const Dendrogram& dendrogram,
    const std::vector<std::vector<double>>& points, std::size_t k_min,
    std::size_t k_max, std::size_t min_cluster_size, ThreadPool* pool) {
  CS_CHECK_MSG(2 <= k_min && k_min <= k_max && k_max <= dendrogram.n(),
               "sweep bounds must satisfy 2 <= k_min <= k_max <= n");
  CS_CHECK_MSG(points.size() == dendrogram.n(),
               "points must match the dendrogram");
  const std::size_t n = dendrogram.n();
  const std::size_t dim = points[0].size();
  for (const auto& p : points)
    CS_CHECK_MSG(p.size() == dim, "inconsistent point dimension");
  auto& registry = obs::MetricsRegistry::instance();
  obs::ScopedTimer sweep_timer(
      registry.histogram("cellscope.ml.dbi_sweep_ms"));
  auto& per_k_histogram = registry.histogram("cellscope.ml.dbi_k_ms");
  auto& cuts_evaluated = registry.counter("cellscope.ml.dbi_cuts_evaluated");

  // One descending pass k_max -> k_min. Each merge is replayed exactly
  // once; per-cluster member lists, coordinate sums, and scatter are
  // carried across cuts, and only the cluster a merge touched is
  // recomputed. All per-cluster accumulations run over members in
  // ascending index order — the exact reduction order of
  // cluster_centroids/davies_bouldin — so each sweep point matches the
  // per-k recomputation it replaces.
  struct Cluster {
    std::vector<std::size_t> members;  // ascending; empty once absorbed
    std::vector<double> sum;           // per-dimension member sum
    double scatter_sum = 0.0;          // sum of member-centroid distances
    bool dirty = true;
  };
  // Indexed by representative (smallest member) leaf — exactly the merge
  // endpoints recorded by Dendrogram::run, so ascending-representative
  // order is the dense label order of cut_k.
  std::vector<Cluster> cluster(n);
  for (std::size_t i = 0; i < n; ++i) cluster[i].members = {i};

  const auto& merges = dendrogram.merges();
  auto apply_merge = [&cluster](const Merge& m) {
    Cluster& into = cluster[m.a];
    Cluster& from = cluster[m.b];
    std::vector<std::size_t> merged;
    merged.reserve(into.members.size() + from.members.size());
    std::merge(into.members.begin(), into.members.end(), from.members.begin(),
               from.members.end(), std::back_inserter(merged));
    into.members = std::move(merged);
    into.dirty = true;
    from = Cluster{};
    from.members.shrink_to_fit();
  };

  std::size_t applied = 0;
  while (applied < n - k_max) apply_merge(merges[applied++]);

  std::vector<DbiSweepPoint> sweep(k_max - k_min + 1);
  for (std::size_t k = k_max;; --k) {
    obs::ScopedTimer k_timer(per_k_histogram);
    std::vector<std::size_t> reps;
    reps.reserve(k);
    for (std::size_t i = 0; i < n; ++i)
      if (!cluster[i].members.empty()) reps.push_back(i);
    CS_CHECK_MSG(reps.size() == k, "merge replay out of sync");

    // Per-cluster centroid and mean scatter; dirty clusters (touched by a
    // merge since their last evaluation) are recomputed, the rest reuse
    // their cached sums and scatter bit-for-bit.
    std::vector<std::vector<double>> centroids(k);
    std::vector<double> scatter(k, 0.0);
    for_each_index(pool, k, [&](std::size_t c) {
      Cluster& cl = cluster[reps[c]];
      const auto count = static_cast<double>(cl.members.size());
      if (cl.dirty) {
        cl.sum.assign(dim, 0.0);
        for (const std::size_t m : cl.members)
          for (std::size_t d = 0; d < dim; ++d) cl.sum[d] += points[m][d];
      }
      auto& centroid = centroids[c];
      centroid.resize(dim);
      for (std::size_t d = 0; d < dim; ++d) centroid[d] = cl.sum[d] / count;
      if (cl.dirty) {
        cl.scatter_sum = 0.0;
        for (const std::size_t m : cl.members)
          cl.scatter_sum += euclidean_distance(points[m], centroid);
        cl.dirty = false;
      }
      scatter[c] = cl.scatter_sum / count;
    });

    // Pairwise-centroid step: rows in parallel, final sum in fixed order.
    std::vector<double> worst(k, 0.0);
    for_each_index(pool, k, [&](std::size_t i) {
      double w = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        if (i == j) continue;
        const double m = euclidean_distance(centroids[i], centroids[j]);
        CS_CHECK_MSG(m > 0.0, "coincident centroids");
        w = std::max(w, (scatter[i] + scatter[j]) / m);
      }
      worst[i] = w;
    });
    double dbi = 0.0;
    for (std::size_t i = 0; i < k; ++i) dbi += worst[i];
    dbi /= static_cast<double>(k);

    DbiSweepPoint point;
    point.k = k;
    point.dbi = dbi;
    // After n-k merges there are k clusters; the next merge distance is
    // the largest threshold that still yields k clusters.
    const std::size_t applied_for_k = n - k;
    point.threshold = applied_for_k < merges.size()
                          ? merges[applied_for_k].distance
                          : merges.back().distance;
    for (const std::size_t r : reps) {
      if (cluster[r].members.size() < min_cluster_size) {
        point.valid = false;
        break;
      }
    }
    cuts_evaluated.add(1);
    obs::log_debug("dbi_sweep.cut", {{"k", k},
                                     {"dbi", point.dbi},
                                     {"valid", point.valid},
                                     {"wall_ms", k_timer.elapsed_ms()}});
    sweep[k - k_min] = point;
    if (k == k_min) break;
    apply_merge(merges[applied++]);
  }
  return sweep;
}

DbiSweepPoint best_cut(const std::vector<DbiSweepPoint>& sweep) {
  CS_CHECK_MSG(!sweep.empty(), "empty sweep");
  const DbiSweepPoint* best = nullptr;
  for (const auto& point : sweep) {
    if (!point.valid) continue;
    if (!best || point.dbi < best->dbi) best = &point;
  }
  if (!best) {
    // No valid cut: fall back to the unconstrained minimum.
    for (const auto& point : sweep)
      if (!best || point.dbi < best->dbi) best = &point;
  }
  return *best;
}

}  // namespace cellscope
