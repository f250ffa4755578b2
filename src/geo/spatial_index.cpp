#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace cellscope {

namespace {

constexpr double kDegToRad = std::numbers::pi / 180.0;

/// The shell's floor: far above the bound at city radii (under 2 mm at
/// 200 m) and above any rounding in the planar or haversine distance.
constexpr double kSlackFloorM = 1.0;

/// The bound's domain (DESIGN §8): distances up to R/100, |latitude| up
/// to 80°.
constexpr double kPlanarMaxM = kEarthRadiusM / 100.0;
constexpr double kPlanarMaxLatDeg = 80.0;

}  // namespace

TangentPlane::TangentPlane(const LatLon& origin)
    : origin_(origin),
      m_per_deg_lon_(kMetersPerDegreeLat * std::cos(origin.lat * kDegToRad)) {}

double planar_error_bound_m(double distance_m, double lat_deg) {
  const double tan_lat = std::abs(std::tan(lat_deg * kDegToRad));
  return distance_m * distance_m * (tan_lat + distance_m / kEarthRadiusM) /
         (2.0 * kEarthRadiusM);
}

double planar_slack_m(double radius_m, double lat_deg) {
  const double slack =
      kSlackFloorM +
      2.0 * planar_error_bound_m(radius_m + kSlackFloorM, lat_deg);
  if (radius_m + slack > kPlanarMaxM || std::abs(lat_deg) > kPlanarMaxLatDeg)
    return std::numeric_limits<double>::infinity();
  return slack;
}

SpatialIndex::SpatialIndex(const BoundingBox& box, std::vector<LatLon> points,
                           double cell_km)
    : box_(box) {
  CS_CHECK_MSG(cell_km > 0.0, "cell_km must be positive");
  CS_CHECK_MSG(box.lat_max > box.lat_min && box.lon_max > box.lon_min,
               "bounding box must be non-degenerate");
  CS_CHECK_MSG(points.size() < std::numeric_limits<std::uint32_t>::max(),
               "spatial index holds fewer than 2^32 - 1 points");
  const double height_km = box_.height_km();
  const double width_km = box_.width_km();
  rows_ = std::max<std::size_t>(1, static_cast<std::size_t>(height_km / cell_km));
  cols_ = std::max<std::size_t>(1, static_cast<std::size_t>(width_km / cell_km));
  cell_lat_deg_ = (box_.lat_max - box_.lat_min) / static_cast<double>(rows_);
  cell_lon_deg_ = (box_.lon_max - box_.lon_min) / static_cast<double>(cols_);

  // Counting sort by cell: count, prefix-sum, then place each point at
  // its cell's next free slot (stable, so a cell keeps input order).
  std::vector<std::uint32_t> cell(points.size());
  cell_start_.assign(rows_ * cols_ + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i] = box_.clamp(points[i]);
    cell[i] = static_cast<std::uint32_t>(bucket_of(points[i]));
    ++cell_start_[cell[i] + 1];
  }
  for (std::size_t c = 0; c < rows_ * cols_; ++c)
    cell_start_[c + 1] += cell_start_[c];
  std::vector<std::uint32_t> next(cell_start_.begin(), cell_start_.end() - 1);
  points_.resize(points.size());
  ids_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t s = next[cell[i]]++;
    points_[s] = points[i];
    ids_[s] = static_cast<std::uint32_t>(i);
  }
}

std::size_t SpatialIndex::bucket_of(const LatLon& p) const {
  auto clamp_idx = [](double f, std::size_t n) {
    const auto i = static_cast<std::ptrdiff_t>(f);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(n) - 1));
  };
  const std::size_t r =
      clamp_idx((p.lat - box_.lat_min) / cell_lat_deg_, rows_);
  const std::size_t c =
      clamp_idx((p.lon - box_.lon_min) / cell_lon_deg_, cols_);
  return r * cols_ + c;
}

SpatialIndex::Window SpatialIndex::window(const LatLon& center,
                                          double radius_m) const {
  CS_CHECK_MSG(radius_m >= 0.0, "radius must be non-negative");
  Window w;
  if (points_.empty()) return w;

  // The search box holds the spherical cap of radius r + 1 m: θ of
  // latitude either way, and the cap's widest longitude, asin(sin θ /
  // cos φ) — all of it once the cap reaches a pole.
  const double theta = (radius_m + kSlackFloorM) / kEarthRadiusM;
  const double dlat = theta / kDegToRad;
  const double sin_ratio =
      std::sin(std::min(theta, std::numbers::pi / 2)) /
      std::cos(center.lat * kDegToRad);
  const double dlon = sin_ratio >= 1.0 || sin_ratio < 0.0
                          ? 360.0
                          : std::asin(sin_ratio) / kDegToRad;

  const LatLon lo = box_.clamp({center.lat - dlat, center.lon - dlon});
  const LatLon hi = box_.clamp({center.lat + dlat, center.lon + dlon});
  w.row_begin = bucket_of(lo) / cols_;
  w.col_begin = bucket_of(lo) % cols_;
  w.row_end = bucket_of(hi) / cols_ + 1;
  w.col_end = bucket_of(hi) % cols_ + 1;

  // An infinite slack accepts and rejects nothing on the plane.
  const double slack = planar_slack_m(radius_m, center.lat);
  if (radius_m > slack) w.accept_m2 = (radius_m - slack) * (radius_m - slack);
  w.reject_m2 = (radius_m + slack) * (radius_m + slack);
  return w;
}

std::vector<std::size_t> SpatialIndex::query_radius(const LatLon& center,
                                                    double radius_m) const {
  std::vector<std::size_t> out;
  for_each_within(center, radius_m,
                  [&](std::size_t s) { out.push_back(ids_[s]); });
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t SpatialIndex::count_radius(const LatLon& center,
                                       double radius_m) const {
  std::size_t count = 0;
  for_each_within(center, radius_m, [&count](std::size_t) { ++count; });
  return count;
}

}  // namespace cellscope
