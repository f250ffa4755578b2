// Tower deployment over the synthetic city.
#pragma once

#include <cstdint>
#include <vector>

#include "city/city_model.h"
#include "city/tower.h"

namespace cellscope {

/// Options for tower deployment.
struct DeploymentOptions {
  std::size_t n_towers = 2000;
  /// Region mixture, indexed by FunctionalRegion; defaults to the paper's
  /// Table 1 shares.
  std::array<double, kNumRegions> region_mix = table1_region_mix();
  std::uint64_t seed = 42;
};

/// Places towers over the city: each tower draws its region from the
/// mixture and its location from that region's spatial field; the address
/// is the synthetic street address at that location. IDs are dense 0..n-1.
std::vector<Tower> deploy_towers(const CityModel& city,
                                 const DeploymentOptions& options);

}  // namespace cellscope
