#include "geo/spatial_index.h"

#include <algorithm>

#include "common/error.h"

namespace cellscope {

SpatialIndex::SpatialIndex(const BoundingBox& box, std::vector<LatLon> points,
                           double cell_km)
    : box_(box), points_(std::move(points)) {
  CS_CHECK_MSG(cell_km > 0.0, "cell_km must be positive");
  CS_CHECK_MSG(box.lat_max > box.lat_min && box.lon_max > box.lon_min,
               "bounding box must be non-degenerate");
  const double height_km = box_.height_km();
  const double width_km = box_.width_km();
  rows_ = std::max<std::size_t>(1, static_cast<std::size_t>(height_km / cell_km));
  cols_ = std::max<std::size_t>(1, static_cast<std::size_t>(width_km / cell_km));
  cell_lat_deg_ = (box_.lat_max - box_.lat_min) / static_cast<double>(rows_);
  cell_lon_deg_ = (box_.lon_max - box_.lon_min) / static_cast<double>(cols_);
  buckets_.resize(rows_ * cols_);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    points_[i] = box_.clamp(points_[i]);
    buckets_[bucket_of(points_[i])].push_back(i);
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

template <typename Visit>
void SpatialIndex::for_each_within(const LatLon& center, double radius_m,
                                   Visit&& visit) const {
  CS_CHECK_MSG(radius_m >= 0.0, "radius must be non-negative");
  if (points_.empty()) return;

  // Conservative degree extents of the radius.
  const double dlat = radius_m / 1000.0 / km_per_degree_lat();
  const double dlon =
      radius_m / 1000.0 / std::max(1e-9, km_per_degree_lon(center.lat));

  const LatLon lo = box_.clamp({center.lat - dlat, center.lon - dlon});
  const LatLon hi = box_.clamp({center.lat + dlat, center.lon + dlon});
  const std::size_t r0 = bucket_of(lo) / cols_;
  const std::size_t c0 = bucket_of(lo) % cols_;
  const std::size_t r1 = bucket_of(hi) / cols_;
  const std::size_t c1 = bucket_of(hi) % cols_;

  for (std::size_t r = r0; r <= r1; ++r) {
    for (std::size_t c = c0; c <= c1; ++c) {
      for (const std::size_t i : buckets_[r * cols_ + c]) {
        if (haversine_m(points_[i], center) <= radius_m) visit(i);
      }
    }
  }
}

std::vector<std::size_t> SpatialIndex::query_radius(const LatLon& center,
                                                    double radius_m) const {
  std::vector<std::size_t> out;
  for_each_within(center, radius_m, [&out](std::size_t i) { out.push_back(i); });
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
