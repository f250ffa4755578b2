#include "geo/latlon.h"

#include <algorithm>
#include <cmath>

namespace cellscope {

namespace {
constexpr double kDegToRad = M_PI / 180.0;
}  // namespace

double haversine_m(const LatLon& a, const LatLon& b) {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;
  const double s = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(s)));
}

double haversine_km(const LatLon& a, const LatLon& b) {
  return haversine_m(a, b) / 1000.0;
}

bool BoundingBox::contains(const LatLon& p) const {
  return p.lat >= lat_min && p.lat <= lat_max && p.lon >= lon_min &&
         p.lon <= lon_max;
}

LatLon BoundingBox::center() const {
  return {(lat_min + lat_max) / 2.0, (lon_min + lon_max) / 2.0};
}

double BoundingBox::height_km() const {
  return (lat_max - lat_min) * km_per_degree_lat();
}

double BoundingBox::width_km() const {
  return (lon_max - lon_min) * km_per_degree_lon(center().lat);
}

double BoundingBox::area_km2() const { return height_km() * width_km(); }

LatLon BoundingBox::clamp(const LatLon& p) const {
  return {std::clamp(p.lat, lat_min, lat_max),
          std::clamp(p.lon, lon_min, lon_max)};
}

BoundingBox shanghai_bbox() {
  // Metropolitan Shanghai, matching the spatial extent of the paper's maps.
  return {30.95, 31.45, 121.20, 121.80};
}

double km_per_degree_lat() { return 111.32; }

double km_per_degree_lon(double lat) {
  return 111.32 * std::cos(lat * kDegToRad);
}

}  // namespace cellscope
