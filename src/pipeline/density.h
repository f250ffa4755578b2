// Traffic density over the city — the paper's preprocessing step 3 (§2.2)
// and the raw material of the Fig. 2 spatial heatmaps.
#pragma once

#include <cstddef>
#include <vector>

#include "city/tower.h"
#include "geo/density_grid.h"
#include "pipeline/traffic_matrix.h"

namespace cellscope {

/// Rasterizes per-tower traffic summed over one hour of one day (the
/// paper's "at 4AM" snapshots of Fig. 2) onto a rows × cols grid over
/// `box` (bytes per cell; read densities via DensityGrid::density_at).
/// Throws when the day or hour is off the grid or a matrix row has no
/// tower.
DensityGrid traffic_density_at_hour(const std::vector<Tower>& towers,
                                    const TrafficMatrix& matrix, int day,
                                    int hour, const BoundingBox& box,
                                    std::size_t rows, std::size_t cols);

}  // namespace cellscope
