#include "city/poi.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace cellscope {

namespace {

// Mean POI counts within the 200 m neighborhood of a typical tower, by
// (tower region, POI type). Magnitudes follow the structure of the paper's
// Table 2: residential POIs are plentiful everywhere, transport POIs are
// rare in absolute terms, office/entertainment counts explode at their own
// hotspots.
constexpr double kMeanCounts[kNumRegions][kNumPoiTypes] = {
    // Resident, Transport, Office, Entertain
    {130.0, 0.3, 16.0, 34.0},    // resident tower
    {52.0, 2.6, 42.0, 27.0},     // transport tower
    {70.0, 0.8, 320.0, 45.0},    // office tower
    {16.0, 0.4, 70.0, 420.0},    // entertainment tower
    {55.0, 0.5, 65.0, 26.0},     // comprehensive tower
};

// Probability that a tower's neighborhood contains the POI type at all
// (zero-inflation): residential buildings are near-ubiquitous, subway
// stations rare outside transport corridors, malls clustered at hubs.
constexpr double kPresenceProb[kNumRegions][kNumPoiTypes] = {
    // Resident, Transport, Office, Entertain
    {0.97, 0.05, 0.30, 0.30},  // resident tower
    {0.35, 0.92, 0.50, 0.45},  // transport tower
    {0.35, 0.15, 0.98, 0.45},  // office tower
    {0.28, 0.12, 0.50, 0.97},  // entertainment tower
    {0.55, 0.15, 0.60, 0.45},  // comprehensive tower
};

/// Spatial spread of POIs around their anchor tower, meters.
constexpr double kSpreadM = 90.0;

}  // namespace

double PoiDatabase::expected_count(FunctionalRegion tower_region,
                                   PoiType type) {
  return kMeanCounts[static_cast<int>(tower_region)][static_cast<int>(type)];
}

double PoiDatabase::presence_probability(FunctionalRegion tower_region,
                                         PoiType type) {
  return kPresenceProb[static_cast<int>(tower_region)][static_cast<int>(type)];
}

PoiDatabase PoiDatabase::generate(const CityModel& city,
                                  const std::vector<Tower>& towers,
                                  const PoiGenerationOptions& options) {
  // Degenerate mixtures: each tower's POI profile is exactly its latent
  // region's profile.
  std::vector<std::array<double, 4>> degenerate;
  degenerate.reserve(towers.size());
  for (const auto& t : towers) {
    std::array<double, 4> w{};
    if (t.true_region == FunctionalRegion::kComprehensive) {
      // Comprehensive towers fall back to the kComprehensive POI row,
      // signalled by an all-zero mixture (handled below).
    } else {
      w[static_cast<int>(t.true_region)] = 1.0;
    }
    degenerate.push_back(w);
  }
  return generate(city, towers, degenerate, options);
}

PoiDatabase PoiDatabase::generate(
    const CityModel& city, const std::vector<Tower>& towers,
    const std::vector<std::array<double, 4>>& mixtures,
    const PoiGenerationOptions& options) {
  CS_CHECK_MSG(options.scale > 0.0, "poi scale must be positive");
  CS_CHECK_MSG(mixtures.size() == towers.size(),
               "need one mixture per tower");
  Rng rng(options.seed);
  std::vector<Poi> pois;
  pois.reserve(towers.size() * 64);

  for (std::size_t ti = 0; ti < towers.size(); ++ti) {
    const auto& t = towers[ti];
    const auto& w = mixtures[ti];
    double w_sum = 0.0;
    double w_max = 0.0;
    int dominant = -1;
    for (int r = 0; r < 4; ++r) {
      w_sum += w[r];
      if (w[r] > w_max) {
        w_max = w[r];
        dominant = r;
      }
    }
    // Purity coupling: the purer a tower's traffic mixture, the more
    // single-function its neighborhood — the mechanism that puts the
    // paper's most representative towers into single-POI-type areas
    // (their Table 6 F-rows have NTF-IDF ≈ 1 on one type).
    const double foreign_scale =
        w_sum > 0.0 ? std::clamp(3.0 * (1.0 - w_max / w_sum), 0.15, 1.0)
                    : 1.0;

    for (const PoiType type : all_poi_types()) {
      double mean_count;
      double presence;
      if (w_sum > 0.0) {
        mean_count = 0.0;
        presence = 0.0;
        for (int r = 0; r < 4; ++r) {
          const auto region = static_cast<FunctionalRegion>(r);
          mean_count += w[r] / w_sum * expected_count(region, type);
          presence += w[r] / w_sum * presence_probability(region, type);
        }
        if (static_cast<int>(type) != dominant) presence *= foreign_scale;
        // Weight coupling: a function that contributes little traffic to
        // the tower is proportionally less likely to exist around it at
        // all — the traffic-composition <-> land-use link §5.3 validates.
        presence *=
            std::clamp(0.25 + 2.5 * w[static_cast<int>(type)] / w_sum, 0.0,
                       1.0);
      } else {
        mean_count = expected_count(FunctionalRegion::kComprehensive, type);
        presence =
            presence_probability(FunctionalRegion::kComprehensive, type);
      }
      // Zero-inflation: the neighborhood may simply lack the type.
      if (rng.uniform() >= presence) continue;
      const double base = mean_count * options.scale;
      // Gamma-distributed neighborhood richness (towns differ), then a
      // Poisson draw of the actual count.
      const double mean = base * rng.gamma(4.0, 0.25);
      const auto count = rng.poisson(mean);
      for (std::int64_t i = 0; i < count; ++i) {
        const double north_m = rng.normal(0.0, kSpreadM);
        const double east_m = rng.normal(0.0, kSpreadM);
        LatLon p = t.position;
        p.lat += north_m / 1000.0 / km_per_degree_lat();
        p.lon += east_m / 1000.0 / km_per_degree_lon(t.position.lat);
        pois.push_back({type, city.box().clamp(p)});
      }
    }
  }
  return PoiDatabase(city.box(), std::move(pois));
}

PoiDatabase::PoiDatabase(const BoundingBox& box, std::vector<Poi> pois)
    : pois_(std::move(pois)) {
  std::array<std::vector<LatLon>, kNumPoiTypes> by_type;
  for (const auto& p : pois_)
    by_type[static_cast<int>(p.type)].push_back(p.position);
  for (int t = 0; t < kNumPoiTypes; ++t) {
    // The index requires at least a valid box even for empty point sets.
    index_[t] = std::make_unique<SpatialIndex>(box, std::move(by_type[t]),
                                               /*cell_km=*/0.4);
  }
}

std::array<std::size_t, kNumPoiTypes> PoiDatabase::counts_near(
    const LatLon& p, double radius_m) const {
  std::array<std::size_t, kNumPoiTypes> out{};
  for (int t = 0; t < kNumPoiTypes; ++t)
    out[t] = index_[t]->count_radius(p, radius_m);
  return out;
}

std::size_t PoiDatabase::total(PoiType t) const {
  return index_[static_cast<int>(t)]->size();
}

}  // namespace cellscope
