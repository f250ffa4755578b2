#include "pipeline/density.h"

#include <unordered_map>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

namespace {

/// Rasterizes per-tower traffic summed over the slots [slot_begin,
/// slot_end).
DensityGrid traffic_density(const std::vector<Tower>& towers,
                            const TrafficMatrix& matrix,
                            std::size_t slot_begin, std::size_t slot_end,
                            const BoundingBox& box, std::size_t rows,
                            std::size_t cols) {
  obs::StageSpan span("pipeline.density", "pipeline", obs::LogLevel::kDebug);
  std::unordered_map<std::uint32_t, const Tower*> tower_of;
  for (const auto& t : towers) tower_of.emplace(t.id, &t);

  DensityGrid grid(box, rows, cols);
  double total_bytes = 0.0;
  for (std::size_t r = 0; r < matrix.n(); ++r) {
    const auto it = tower_of.find(matrix.tower_ids[r]);
    CS_CHECK_MSG(it != tower_of.end(), "matrix row without tower metadata");
    double bytes = 0.0;
    for (std::size_t s = slot_begin; s < slot_end; ++s)
      bytes += matrix.rows[r][s];
    grid.add(it->second->position, bytes);
    total_bytes += bytes;
  }
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.pipeline.density_rows").add(matrix.n());
  registry.counter("cellscope.pipeline.density_grids").add(1);
  span.annotate({"rows", matrix.n()});
  span.annotate({"slots", slot_end - slot_begin});
  span.annotate({"bytes", total_bytes});
  return grid;
}

}  // namespace

DensityGrid traffic_density_at_hour(const std::vector<Tower>& towers,
                                    const TrafficMatrix& matrix, int day,
                                    int hour, const BoundingBox& box,
                                    std::size_t rows, std::size_t cols) {
  const std::size_t begin = TimeGrid::slot_at(day, hour, 0);
  return traffic_density(towers, matrix, begin, begin + TimeGrid::kSlotsPerHour,
                         box, rows, cols);
}

}  // namespace cellscope
