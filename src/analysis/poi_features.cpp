#include "analysis/poi_features.h"

#include <cmath>

#include "common/error.h"
#include "mapred/thread_pool.h"
#include "ml/hierarchical.h"

namespace cellscope {

std::vector<std::array<std::size_t, kNumPoiTypes>> poi_counts_for_towers(
    const PoiDatabase& pois, const std::vector<Tower>& towers,
    double radius_m, ThreadPool* pool) {
  std::vector<std::array<std::size_t, kNumPoiTypes>> out(towers.size());
  for_each_index(pool, towers.size(), [&](std::size_t i) {
    out[i] = pois.counts_near(towers[i].position, radius_m);
  });
  return out;
}

std::vector<std::array<double, kNumPoiTypes>> normalized_poi_by_cluster(
    const std::vector<std::array<std::size_t, kNumPoiTypes>>& counts,
    const std::vector<int>& labels) {
  CS_CHECK_MSG(counts.size() == labels.size() && !counts.empty(),
               "counts and labels must match");
  const std::size_t k = num_clusters(labels);

  // Min-max per type across all towers.
  std::array<double, kNumPoiTypes> lo{};
  std::array<double, kNumPoiTypes> hi{};
  for (int t = 0; t < kNumPoiTypes; ++t) {
    lo[t] = static_cast<double>(counts[0][t]);
    hi[t] = lo[t];
  }
  for (const auto& row : counts) {
    for (int t = 0; t < kNumPoiTypes; ++t) {
      lo[t] = std::min(lo[t], static_cast<double>(row[t]));
      hi[t] = std::max(hi[t], static_cast<double>(row[t]));
    }
  }

  std::vector<std::array<double, kNumPoiTypes>> sums(
      k, std::array<double, kNumPoiTypes>{});
  std::vector<std::size_t> sizes(k, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<std::size_t>(labels[i]);
    ++sizes[c];
    for (int t = 0; t < kNumPoiTypes; ++t) {
      const double range = hi[t] - lo[t];
      const double normalized =
          range > 0.0
              ? (static_cast<double>(counts[i][t]) - lo[t]) / range
              : 0.0;
      sums[c][t] += normalized;
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    CS_CHECK_MSG(sizes[c] > 0, "empty cluster");
    for (int t = 0; t < kNumPoiTypes; ++t)
      sums[c][t] /= static_cast<double>(sizes[c]);
  }
  return sums;
}

std::vector<std::array<double, kNumPoiTypes>> poi_shares_by_cluster(
    const std::vector<std::array<double, kNumPoiTypes>>& normalized) {
  std::vector<std::array<double, kNumPoiTypes>> shares = normalized;
  for (auto& row : shares) {
    double total = 0.0;
    for (const double v : row) total += v;
    if (total <= 0.0) continue;
    for (auto& v : row) v /= total;
  }
  return shares;
}

std::vector<std::array<double, kNumPoiTypes>> ntf_idf(
    const std::vector<std::array<std::size_t, kNumPoiTypes>>& counts) {
  CS_CHECK_MSG(!counts.empty(), "need at least one tower");
  const double m = static_cast<double>(counts.size());

  // Mᵢ: towers where POI type i appears at all.
  std::array<double, kNumPoiTypes> appears{};
  for (const auto& row : counts)
    for (int t = 0; t < kNumPoiTypes; ++t)
      if (row[t] > 0) appears[t] += 1.0;

  std::array<double, kNumPoiTypes> idf{};
  for (int t = 0; t < kNumPoiTypes; ++t)
    // A type appearing nowhere gets IDF of log(M/1) — it will multiply
    // zero TF everywhere anyway.
    idf[t] = std::log(m / std::max(1.0, appears[t]));

  std::vector<std::array<double, kNumPoiTypes>> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    double total = 0.0;
    for (int t = 0; t < kNumPoiTypes; ++t) {
      out[i][t] = idf[t] * std::log(1.0 + static_cast<double>(counts[i][t]));
      total += out[i][t];
    }
    if (total > 0.0)
      for (auto& v : out[i]) v /= total;
  }
  return out;
}

}  // namespace cellscope
