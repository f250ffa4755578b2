// Grid-bucketed spatial index with radius queries.
//
// The paper repeatedly needs "all POIs within 200 m of a tower" (§3.3) and
// "towers near a map point"; a uniform-grid index gives O(1)-bucket radius
// queries at city scale without external dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numbers>
#include <vector>

#include "geo/latlon.h"

namespace cellscope {

/// Meters per degree of latitude on haversine_m's sphere (R = 6,371 km):
/// 111,194.9 m, not km_per_degree_lat()'s 111.32 km.
inline constexpr double kMetersPerDegreeLat =
    kEarthRadiusM * std::numbers::pi / 180.0;

/// Squared distances on the plane tangent to haversine_m's sphere at
/// `origin` (north scaled by kMetersPerDegreeLat, east by that times
/// cos(origin latitude)) — the prefilter radius queries apply before
/// haversine_m.
class TangentPlane {
 public:
  explicit TangentPlane(const LatLon& origin);

  /// Squared planar distance from the origin to `p`, in m².
  double distance2_m2(const LatLon& p) const {
    const double north = (p.lat - origin_.lat) * kMetersPerDegreeLat;
    const double east = (p.lon - origin_.lon) * m_per_deg_lon_;
    return north * north + east * east;
  }

 private:
  LatLon origin_;
  double m_per_deg_lon_ = 0.0;
};

/// Bound on |planar − haversine_m| distance for two points at most
/// `distance_m` apart, the tangent plane taken at latitude `lat_deg`:
/// d²·(|tan φ| + d/R) / 2R, derived in DESIGN §8 for d ≤ R/100 and
/// |φ| ≤ 80°.
double planar_error_bound_m(double distance_m, double lat_deg);

/// The shell half-width ε a radius query at `radius_m` around a center
/// at `lat_deg` leaves to haversine_m: 1 m + 2·planar_error_bound_m(r +
/// 1 m), and infinite (every candidate takes haversine_m) where r + ε
/// leaves the bound's domain.
double planar_slack_m(double radius_m, double lat_deg);

/// An immutable set of points bucketed on a uniform lat/lon grid,
/// supporting exact radius queries: a point is within the radius exactly
/// when haversine_m says so.
///
/// Points are stored per cell in CSR form (cell offsets, then the cells'
/// points contiguously), so a query reads each row of its search box as
/// one run of memory. Storage position ("slot") s holds input point id(s);
/// within a cell, slots keep input order.
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

  /// Calls visit(slot) for every point within `radius_m` of `center`, in
  /// slot order. A candidate whose tangent-plane distance is at most
  /// r − ε is in and one beyond r + ε is out (ε = planar_slack_m); only
  /// those inside the shell take haversine_m.
  template <typename Visit>
  void for_each_within(const LatLon& center, double radius_m,
                       Visit&& visit) const;

  std::size_t size() const { return points_.size(); }

  /// The input index of the point stored at `slot`.
  std::size_t id(std::size_t slot) const { return ids_[slot]; }

 private:
  /// The rows and columns of cells a query scans, and its thresholds.
  struct Window {
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
    std::size_t col_begin = 0;
    std::size_t col_end = 0;
    double accept_m2 = -1.0;
    double reject_m2 = 0.0;
  };

  std::size_t bucket_of(const LatLon& p) const;
  Window window(const LatLon& center, double radius_m) const;

  BoundingBox box_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double cell_lat_deg_ = 0.0;
  double cell_lon_deg_ = 0.0;
  /// rows_·cols_ + 1 offsets: cell c holds slots [start[c], start[c + 1]).
  std::vector<std::uint32_t> cell_start_;
  std::vector<LatLon> points_;     // by slot, clamped into box_
  std::vector<std::uint32_t> ids_;  // by slot
};

template <typename Visit>
void SpatialIndex::for_each_within(const LatLon& center, double radius_m,
                                   Visit&& visit) const {
  const Window w = window(center, radius_m);
  const TangentPlane plane(center);
  for (std::size_t r = w.row_begin; r < w.row_end; ++r) {
    // The row's cells are adjacent in slot order: one run per row.
    const std::size_t end = cell_start_[r * cols_ + w.col_end];
    for (std::size_t s = cell_start_[r * cols_ + w.col_begin]; s < end; ++s) {
      const double d2 = plane.distance2_m2(points_[s]);
      if (d2 <= w.accept_m2 ||
          (d2 <= w.reject_m2 && haversine_m(points_[s], center) <= radius_m))
        visit(s);
    }
  }
}

}  // namespace cellscope
