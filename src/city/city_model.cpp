#include "city/city_model.h"

#include <cmath>

#include "common/error.h"

namespace cellscope {

namespace {

/// `region_at` names a pure function only when its intensity is at least
/// this many times the runner-up's.
constexpr double kDominance = 1.6;

// Planar km offsets between two nearby points (adequate at city scale).
double dx_km(const LatLon& a, const LatLon& b) {
  return (b.lon - a.lon) * km_per_degree_lon((a.lat + b.lat) / 2.0);
}

double dy_km(const LatLon& a, const LatLon& b) {
  return (b.lat - a.lat) * km_per_degree_lat();
}

double gaussian_kernel(const LatLon& center, double sigma_km,
                       const LatLon& p) {
  const double dx = dx_km(center, p);
  const double dy = dy_km(center, p);
  return std::exp(-(dx * dx + dy * dy) / (2.0 * sigma_km * sigma_km));
}

LatLon offset_km(const LatLon& p, double north_km, double east_km) {
  return {p.lat + north_km / km_per_degree_lat(),
          p.lon + east_km / km_per_degree_lon(p.lat)};
}

}  // namespace

CityModel CityModel::create_default(std::uint64_t seed) {
  Rng rng(seed);
  const BoundingBox box = shanghai_bbox();
  const LatLon c = box.center();

  std::vector<std::vector<Hotspot>> spots(kNumRegions);

  // Office: a dense CBD at the center plus two secondary business districts.
  spots[static_cast<int>(FunctionalRegion::kOffice)] = {
      {c, 2.2, 3.0},
      {offset_km(c, 4.0, 6.0), 1.5, 1.2},
      {offset_km(c, -5.0, -4.0), 1.5, 1.0},
  };

  // Resident: a ring of neighborhoods around the center (the paper: towers
  // of this cluster sit on the surrounding areas of the city).
  auto& res = spots[static_cast<int>(FunctionalRegion::kResident)];
  const int kNeighborhoods = 10;
  for (int i = 0; i < kNeighborhoods; ++i) {
    const double ang = 2.0 * M_PI * i / kNeighborhoods + rng.uniform(-0.15, 0.15);
    const double radius = rng.uniform(9.0, 14.0);
    res.push_back({offset_km(c, radius * std::sin(ang), radius * std::cos(ang)),
                   rng.uniform(1.8, 2.6), rng.uniform(0.8, 1.4)});
  }

  // Transport: stations strung along a N-S and an E-W corridor.
  auto& tra = spots[static_cast<int>(FunctionalRegion::kTransport)];
  for (int i = -3; i <= 3; ++i) {
    tra.push_back({offset_km(c, 4.5 * i, rng.uniform(-1.0, 1.0)), 0.5, 1.0});
    tra.push_back({offset_km(c, rng.uniform(-1.0, 1.0), 5.0 * i), 0.5, 1.0});
  }

  // Entertainment: a handful of malls/parks between center and ring.
  auto& ent = spots[static_cast<int>(FunctionalRegion::kEntertainment)];
  const int kHubs = 6;
  for (int i = 0; i < kHubs; ++i) {
    const double ang = 2.0 * M_PI * i / kHubs + 0.4;
    const double radius = rng.uniform(4.0, 8.0);
    ent.push_back({offset_km(c, radius * std::sin(ang), radius * std::cos(ang)),
                   rng.uniform(0.7, 1.1), rng.uniform(0.9, 1.3)});
  }

  // Comprehensive: one wide urban background blob (mixed use everywhere,
  // denser toward the center).
  spots[static_cast<int>(FunctionalRegion::kComprehensive)] = {
      {c, 12.0, 1.0},
  };

  return CityModel(box, std::move(spots));
}

CityModel::CityModel(BoundingBox box,
                     std::vector<std::vector<Hotspot>> hotspots_by_function)
    : box_(box), hotspots_(std::move(hotspots_by_function)) {
  CS_CHECK_MSG(hotspots_.size() == static_cast<std::size_t>(kNumRegions),
               "need one hotspot set per region");
  for (const auto& set : hotspots_)
    CS_CHECK_MSG(!set.empty(), "each region needs at least one hotspot");
}

double CityModel::intensity(FunctionalRegion r, const LatLon& p) const {
  double s = 0.0;
  for (const auto& h : hotspots_[static_cast<int>(r)])
    s += h.weight * gaussian_kernel(h.center, h.sigma_km, p);
  return s;
}

LatLon CityModel::sample_location(FunctionalRegion r, Rng& rng) const {
  const auto& set = hotspots_[static_cast<int>(r)];
  std::vector<double> weights;
  weights.reserve(set.size());
  for (const auto& h : set) weights.push_back(h.weight);
  const auto& h = set[rng.categorical(weights)];
  const LatLon p = {h.center.lat + rng.normal(0.0, h.sigma_km) /
                                       km_per_degree_lat(),
                    h.center.lon + rng.normal(0.0, h.sigma_km) /
                                       km_per_degree_lon(h.center.lat)};
  return box_.clamp(p);
}

FunctionalRegion CityModel::region_at(const LatLon& p) const {
  double best = 0.0;
  double second = 0.0;
  FunctionalRegion best_r = FunctionalRegion::kComprehensive;
  for (const FunctionalRegion r :
       {FunctionalRegion::kResident, FunctionalRegion::kTransport,
        FunctionalRegion::kOffice, FunctionalRegion::kEntertainment}) {
    const double v = intensity(r, p);
    if (v > best) {
      second = best;
      best = v;
      best_r = r;
    } else if (v > second) {
      second = v;
    }
  }
  if (best <= 0.0) return FunctionalRegion::kComprehensive;
  if (second > 0.0 && best / second < kDominance)
    return FunctionalRegion::kComprehensive;
  return best_r;
}

const std::vector<Hotspot>& CityModel::hotspots(FunctionalRegion r) const {
  return hotspots_[static_cast<int>(r)];
}

}  // namespace cellscope
