// Grid-bucketed spatial index with radius queries.
//
// The paper repeatedly needs "all POIs within 200 m of a tower" (§3.3) and
// "towers near a map point"; a uniform-grid index gives O(1)-bucket radius
// queries at city scale without external dependencies.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/latlon.h"

namespace cellscope {

/// An immutable set of points bucketed on a uniform lat/lon grid,
/// supporting exact radius queries (haversine-verified).
class SpatialIndex {
 public:
  /// Builds the index over `points` within `box`. `cell_km` is the target
  /// bucket edge length in kilometers (> 0). Points outside the box are
  /// clamped into it (towers at the city fringe remain queryable).
  SpatialIndex(const BoundingBox& box, std::vector<LatLon> points,
               double cell_km = 0.5);

  /// Indices of all points within `radius_m` meters of `center`.
  std::vector<std::size_t> query_radius(const LatLon& center,
                                        double radius_m) const;

  /// Number of points within `radius_m` meters of `center`.
  std::size_t count_radius(const LatLon& center, double radius_m) const;

  std::size_t size() const { return points_.size(); }
  const LatLon& point(std::size_t i) const { return points_[i]; }

 private:
  std::size_t bucket_of(const LatLon& p) const;

  /// Calls visit(i) for every point within `radius_m` of `center`, in
  /// bucket order — the scan query_radius collects and count_radius counts.
  template <typename Visit>
  void for_each_within(const LatLon& center, double radius_m,
                       Visit&& visit) const;

  BoundingBox box_;
  std::vector<LatLon> points_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double cell_lat_deg_ = 0.0;
  double cell_lon_deg_ = 0.0;
  std::vector<std::vector<std::size_t>> buckets_;
};

}  // namespace cellscope
