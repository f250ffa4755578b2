// POI-derived features: the measurements behind Tables 2, 3, 6 and Fig. 9.
//
// Per-tower POI counts within 200 m; min-max-normalized per-cluster
// averages (Table 3 / Fig. 9); and the TF-IDF / normalized TF-IDF measure
// the paper borrows from Yuan et al. for the §5.3 validation (Table 6):
//   IDFᵢ = log(M / Mᵢ),   TF-IDFᵐᵢ = IDFᵢ · log(1 + POIᵐᵢ),
//   NTF-IDFᵐᵢ = TF-IDFᵐᵢ / Σⱼ TF-IDFᵐⱼ.
#pragma once

#include <array>
#include <vector>

#include "city/poi.h"
#include "city/tower.h"

namespace cellscope {

class ThreadPool;

/// The paper's POI neighborhood radius (200 m, §3.3.1).
inline constexpr double kPoiRadiusM = 200.0;

/// Per-type POI counts around every tower. With a pool, towers are
/// counted in parallel; the result is identical to the serial path.
std::vector<std::array<std::size_t, kNumPoiTypes>> poi_counts_for_towers(
    const PoiDatabase& pois, const std::vector<Tower>& towers,
    double radius_m = kPoiRadiusM, ThreadPool* pool = nullptr);

/// Table 3: min-max normalize each POI type across towers, then average
/// within each cluster. `labels[i]` is the cluster of towers[i].
std::vector<std::array<double, kNumPoiTypes>> normalized_poi_by_cluster(
    const std::vector<std::array<std::size_t, kNumPoiTypes>>& counts,
    const std::vector<int>& labels);

/// Fig. 9: each cluster's normalized POI as shares summing to 1.
std::vector<std::array<double, kNumPoiTypes>> poi_shares_by_cluster(
    const std::vector<std::array<double, kNumPoiTypes>>& normalized);

/// NTF-IDF of every tower (rows sum to 1 when the tower has any POI;
/// all-zero rows stay zero).
std::vector<std::array<double, kNumPoiTypes>> ntf_idf(
    const std::vector<std::array<std::size_t, kNumPoiTypes>>& counts);

}  // namespace cellscope
