// Street addresses of base stations.
//
// The paper resolves base-station street addresses to coordinates through
// the Baidu Map API (§2.2). That service is unavailable offline, so this
// module provides a stand-in (DESIGN.md §2): a deterministic address
// scheme ("District-D/Street-S/No-N", which quantizes the city to a ~10 m
// grid) whose decode is the lookup.
#pragma once

#include <optional>
#include <string>

#include "geo/latlon.h"

namespace cellscope {

/// Deterministic two-way mapping between coordinates and synthetic street
/// addresses over a bounding box.
class AddressCodec {
 public:
  explicit AddressCodec(const BoundingBox& box);

  /// Formats a point as "District-D/Street-S/No-N". The encoding quantizes
  /// to roughly 10 m; decode(encode(p)) is within that tolerance of p.
  std::string encode(const LatLon& p) const;

  /// Parses an address back to coordinates; returns std::nullopt for
  /// malformed addresses (the cleaner drops such logs).
  std::optional<LatLon> decode(const std::string& address) const;

 private:
  BoundingBox box_;
  // District: coarse grid; street: finer; number: finest. The product of
  // the three grid levels yields the ~10 m resolution.
  static constexpr int kDistricts = 32;     // per axis
  static constexpr int kStreets = 64;       // per district, per axis
  static constexpr int kNumbers = 64;       // per street cell, per axis
};

}  // namespace cellscope
