#include "pipeline/density.h"

#include <gtest/gtest.h>

#include "city/deployment.h"
#include "common/error.h"
#include "pipeline/vectorizer.h"
#include "traffic/intensity_model.h"

namespace cellscope {
namespace {

struct Scenario {
  std::vector<Tower> towers;
  TrafficMatrix matrix;
  BoundingBox box;
};

Scenario make_scenario(std::size_t n) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = n;
  auto towers = deploy_towers(city, options);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  auto matrix = vectorize_intensity(towers, intensity, 5);
  return {std::move(towers), std::move(matrix), city.box()};
}

TEST(Density, TotalEqualsTrafficInWindow) {
  const auto scenario = make_scenario(30);
  const std::size_t begin = TimeGrid::slot_at(2, 13, 0);
  const std::size_t end = begin + TimeGrid::kSlotsPerHour;
  const auto grid = traffic_density_at_hour(scenario.towers, scenario.matrix,
                                            2, 13, scenario.box, 20, 20);
  double expected = 0.0;
  for (const auto& row : scenario.matrix.rows)
    for (std::size_t s = begin; s < end; ++s) expected += row[s];
  EXPECT_NEAR(grid.total(), expected, expected * 1e-9);
}

TEST(Density, NightLighterThanDay) {
  // Fig. 2's core observation: 4 AM densities are far below 10 AM.
  const auto scenario = make_scenario(60);
  const auto night = traffic_density_at_hour(scenario.towers, scenario.matrix,
                                             3, 4, scenario.box, 10, 10);
  const auto day = traffic_density_at_hour(scenario.towers, scenario.matrix,
                                           3, 10, scenario.box, 10, 10);
  EXPECT_GT(day.total(), 3.0 * night.total());
}

TEST(Density, HourWindowIsOneHourOfSlots) {
  const auto scenario = make_scenario(10);
  const auto grid = traffic_density_at_hour(scenario.towers, scenario.matrix,
                                            0, 0, scenario.box, 5, 5);
  double expected = 0.0;
  for (const auto& row : scenario.matrix.rows)
    for (std::size_t s = 0; s < TimeGrid::kSlotsPerHour; ++s)
      expected += row[s];
  EXPECT_NEAR(grid.total(), expected, expected * 1e-9);
}

TEST(Density, InvalidSlotRangeThrows) {
  const auto scenario = make_scenario(5);
  EXPECT_THROW(traffic_density_at_hour(scenario.towers, scenario.matrix,
                                       TimeGrid::kDays, 0, scenario.box, 5, 5),
               Error);
  EXPECT_THROW(traffic_density_at_hour(scenario.towers, scenario.matrix, 0,
                                       24, scenario.box, 5, 5),
               Error);
}

TEST(Density, MissingTowerMetadataThrows) {
  auto scenario = make_scenario(5);
  scenario.towers.pop_back();  // matrix row without tower
  EXPECT_THROW(traffic_density_at_hour(scenario.towers, scenario.matrix, 0, 0,
                                       scenario.box, 5, 5),
               Error);
}

TEST(Density, CityCenterIsDenserThanFringe) {
  const auto scenario = make_scenario(400);
  const auto grid = traffic_density_at_hour(scenario.towers, scenario.matrix,
                                            3, 10, scenario.box, 11, 11);
  // The center cell (office CBD) should out-dense the corner cells.
  const double center = grid.density_at(5, 5);
  const double corner = grid.density_at(0, 0);
  EXPECT_GT(center, corner);
}

}  // namespace
}  // namespace cellscope
