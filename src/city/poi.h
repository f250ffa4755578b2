// Points of interest (POI) — the synthetic stand-in for the Baidu POI
// database the paper queries (§3.3).
//
// POIs of the four pure types are sampled around every tower, with mean
// counts conditioned on the tower's latent region (so residential
// neighborhoods are full of residential POIs, CBD towers see hundreds of
// office POIs, etc. — the dominance structure behind the paper's Tables 2
// and 3). One spatial index over every POI, with the POIs' types in its
// slot order, answers the paper's core POI query: counts of each type
// within a radius (200 m) of a point.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "city/city_model.h"
#include "city/tower.h"
#include "geo/spatial_index.h"

namespace cellscope {

/// One point of interest.
struct Poi {
  PoiType type = PoiType::kResident;
  LatLon position;
};

/// POI generation knobs.
struct PoiGenerationOptions {
  /// Global multiplier on POI counts (1.0 reproduces Table-2-scale counts;
  /// smaller values save memory at large tower counts).
  double scale = 1.0;
  std::uint64_t seed = 4242;
};

/// The city's POI database with per-type radius queries.
class PoiDatabase {
 public:
  /// Samples POIs around every tower conditioned on its latent region.
  static PoiDatabase generate(const CityModel& city,
                              const std::vector<Tower>& towers,
                              const PoiGenerationOptions& options);

  /// Mixture-aware variant: each tower's expected POI mix is the convex
  /// combination (by its latent traffic mixture over the four pure
  /// regions) of the pure regions' POI profiles. Keeps POI neighborhoods
  /// consistent with traffic composition — the coupling §5.3 validates
  /// (Table 6: convex coefficients vs NTF-IDF).
  static PoiDatabase generate(
      const CityModel& city, const std::vector<Tower>& towers,
      const std::vector<std::array<double, 4>>& mixtures,
      const PoiGenerationOptions& options);

  /// Builds a database from explicit POIs (tests use this).
  PoiDatabase(const BoundingBox& box, std::vector<Poi> pois);

  /// Counts of each POI type within `radius_m` of a point — the paper's
  /// fundamental POI measurement (200 m around each tower).
  std::array<std::size_t, kNumPoiTypes> counts_near(const LatLon& p,
                                                    double radius_m) const;

  /// Total POIs of one type in the city.
  std::size_t total(PoiType t) const;

  /// All POIs.
  const std::vector<Poi>& pois() const { return pois_; }

  /// Mean POI count within 200 m for a *typical* tower of the given region
  /// and type, conditional on the type being present at all — the
  /// generation model's expectation, exposed so tests can verify the
  /// sampler against its specification.
  static double expected_count(FunctionalRegion tower_region, PoiType type);

  /// Probability that any POI of the type exists near a tower of the
  /// region. Real neighborhoods are sparse (not every block has a mall or
  /// a subway station); this zero-inflation is what gives the TF-IDF its
  /// discriminating IDF term (§5.3 / Table 6).
  static double presence_probability(FunctionalRegion tower_region,
                                     PoiType type);

 private:
  std::vector<Poi> pois_;  // generation order
  SpatialIndex index_;
  std::vector<std::uint8_t> type_by_slot_;  // PoiType of index_ slot s
  std::array<std::size_t, kNumPoiTypes> totals_{};
};

}  // namespace cellscope
