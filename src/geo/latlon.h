// Geographic coordinates and distance computations.
//
// The paper geocodes base-station addresses to latitude/longitude, counts
// POIs within 200 m of each tower, and computes traffic density per km².
// This header provides the coordinate type, haversine great-circle
// distance, and the bounding box of the synthetic study area (approximating
// the Shanghai metropolitan extent used in the paper's maps).
#pragma once

namespace cellscope {

/// A WGS-84 latitude/longitude pair in degrees.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;
};

/// The mean Earth radius haversine_m uses, in meters.
inline constexpr double kEarthRadiusM = 6371000.0;

/// Great-circle distance between two points in meters (haversine formula,
/// mean Earth radius 6,371 km).
double haversine_m(const LatLon& a, const LatLon& b);

/// Great-circle distance in kilometers.
double haversine_km(const LatLon& a, const LatLon& b);

/// An axis-aligned geographic bounding box.
struct BoundingBox {
  double lat_min = 0.0;
  double lat_max = 0.0;
  double lon_min = 0.0;
  double lon_max = 0.0;

  /// True if the point lies inside (inclusive).
  bool contains(const LatLon& p) const;

  /// Center of the box.
  LatLon center() const;

  /// North-south extent in kilometers (at the box's mean latitude).
  double height_km() const;

  /// East-west extent in kilometers (at the box's mean latitude).
  double width_km() const;

  /// Area in km² (small-box planar approximation).
  double area_km2() const;

  /// Clamps a point into the box.
  LatLon clamp(const LatLon& p) const;
};

/// The synthetic study area: a box over metropolitan Shanghai, matching the
/// extents visible in the paper's Fig. 2/7 maps.
BoundingBox shanghai_bbox();

/// Approximate kilometers per degree of latitude (constant).
double km_per_degree_lat();

/// Approximate kilometers per degree of longitude at the given latitude.
double km_per_degree_lon(double lat);

}  // namespace cellscope
