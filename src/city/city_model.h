// Synthetic city: spatial layout of urban functions.
//
// Substitute for the real Shanghai geography (DESIGN.md §2). Each pure
// function (resident/transport/office/entertainment) is a sum of Gaussian
// hotspots over the study bounding box — a compact model of districts,
// subway stations, CBDs and malls. The comprehensive function is the
// city-wide mixed-use background. The model supports:
//   * sampling a location for a tower of a given region (deployment),
//   * evaluating per-function intensity at a point (ground-truth maps for
//     the Fig. 8 case studies),
//   * classifying a point into the locally dominant region.
#pragma once

#include <vector>

#include "city/functional_region.h"
#include "common/rng.h"
#include "geo/latlon.h"

namespace cellscope {

/// One Gaussian district/hotspot of a single urban function.
struct Hotspot {
  LatLon center;
  double sigma_km = 1.0;  ///< spatial spread
  double weight = 1.0;    ///< relative importance
};

/// The synthetic city model.
class CityModel {
 public:
  /// Builds the default city: an office CBD cluster at the center, a
  /// residential ring around it, transport stations along two axes, and a
  /// few entertainment hubs — the structure the paper's Fig. 7 shows for
  /// Shanghai. Deterministic given the seed.
  static CityModel create_default(std::uint64_t seed = 7);

  /// Creates a model from explicit hotspot sets (tests use this).
  CityModel(BoundingBox box,
            std::vector<std::vector<Hotspot>> hotspots_by_function);

  /// Intensity of one pure function at a point (sum of Gaussian kernels;
  /// comprehensive returns the mixed-use background level).
  double intensity(FunctionalRegion r, const LatLon& p) const;

  /// Samples a plausible location for a tower of the given region:
  /// hotspot chosen by weight, Gaussian jitter, clamped to the box.
  /// Comprehensive towers sample from a wide urban disk.
  LatLon sample_location(FunctionalRegion r, Rng& rng) const;

  /// The locally dominant region at a point: the pure function with the
  /// largest intensity, or kComprehensive when no pure function dominates
  /// clearly (best-to-second intensity ratio below 1.6).
  FunctionalRegion region_at(const LatLon& p) const;

  const BoundingBox& box() const { return box_; }

  /// The hotspots of one pure function.
  const std::vector<Hotspot>& hotspots(FunctionalRegion r) const;

 private:
  BoundingBox box_;
  // Indexed by FunctionalRegion value; kComprehensive's entry holds the
  // wide background hotspots.
  std::vector<std::vector<Hotspot>> hotspots_;
};

}  // namespace cellscope
