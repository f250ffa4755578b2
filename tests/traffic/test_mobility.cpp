#include "traffic/mobility.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/commute_flows.h"
#include "city/deployment.h"
#include "common/error.h"
#include "core/experiment.h"
#include "support/oracles.h"
#include "traffic/mobility_trace.h"

namespace cellscope {
namespace {

std::vector<Tower> make_towers(std::size_t n = 200) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = n;
  return deploy_towers(city, options);
}

TEST(MobilityModel, AssignsSensibleTowerCategories) {
  const auto towers = make_towers();
  MobilityOptions options;
  options.n_users = 200;
  const auto model = MobilityModel::create(towers, options);
  ASSERT_EQ(model.users().size(), 200u);
  for (const auto& user : model.users()) {
    const auto home = towers[user.home_tower].true_region;
    EXPECT_TRUE(home == FunctionalRegion::kResident ||
                home == FunctionalRegion::kComprehensive);
    const auto work = towers[user.work_tower].true_region;
    EXPECT_TRUE(work == FunctionalRegion::kOffice ||
                work == FunctionalRegion::kComprehensive);
    EXPECT_EQ(towers[user.transit_tower].true_region,
              FunctionalRegion::kTransport);
    const auto leisure = towers[user.leisure_tower].true_region;
    EXPECT_TRUE(leisure == FunctionalRegion::kEntertainment ||
                leisure == FunctionalRegion::kComprehensive);
  }
}

TEST(MobilityModel, EmploymentRateIsRespected) {
  const auto towers = make_towers();
  MobilityOptions options;
  options.n_users = 2000;
  const auto model = MobilityModel::create(towers, options);
  std::size_t employed = 0;
  for (const auto& user : model.users())
    if (user.employed) ++employed;
  EXPECT_NEAR(static_cast<double>(employed) / 2000.0, kEmploymentRate, 0.04);
}

TEST(MobilityModel, WeekdayScheduleFollowsTheCommute) {
  const auto towers = make_towers();
  MobilityOptions options;
  options.n_users = 50;
  const auto model = MobilityModel::create(towers, options);
  const auto& users = model.users();
  const auto employed = std::find_if(
      users.begin(), users.end(),
      [](const UserProfile& user) { return user.employed; });
  ASSERT_NE(employed, users.end());
  const auto& user = *employed;

  // 5:00 Monday: home. Midday: work. 23:00: home again.
  EXPECT_EQ(model.place_at(user, TimeGrid::slot_at(0, 5, 0)),
            UserPlace::kHome);
  EXPECT_EQ(model.place_at(user, TimeGrid::slot_at(0, 12, 0)),
            UserPlace::kWork);
  EXPECT_EQ(model.place_at(user, TimeGrid::slot_at(0, 23, 0)),
            UserPlace::kHome);

  // Sometime in [commute_out, commute_out + transit] the user is in
  // transit.
  const auto transit_slot = TimeGrid::slot_at(
      0, static_cast<int>(user.commute_out_h),
      ((static_cast<int>(user.commute_out_h * 60) / 10) * 10) % 60);
  const auto place = model.place_at(user, transit_slot + 1);
  EXPECT_TRUE(place == UserPlace::kTransit || place == UserPlace::kHome ||
              place == UserPlace::kWork);
  // And tower_at is consistent with place_at.
  for (const std::size_t slot :
       {TimeGrid::slot_at(0, 5, 0), TimeGrid::slot_at(0, 12, 0)}) {
    const auto tower = model.tower_at(user, slot);
    if (model.place_at(user, slot) == UserPlace::kHome) {
      EXPECT_EQ(tower, user.home_tower);
    }
    if (model.place_at(user, slot) == UserPlace::kWork) {
      EXPECT_EQ(tower, user.work_tower);
    }
  }
}

TEST(MobilityModel, UnemployedUsersStayHomeOnWeekdays) {
  const auto towers = make_towers();
  MobilityOptions options;
  options.n_users = 50;
  const auto model = MobilityModel::create(towers, options);
  std::size_t unemployed = 0;
  for (const auto& user : model.users()) {
    if (user.employed) continue;
    ++unemployed;
    for (int hour = 0; hour < 24; hour += 3)
      EXPECT_EQ(model.place_at(user, TimeGrid::slot_at(0, hour, 0)),
                UserPlace::kHome);
  }
  EXPECT_GT(unemployed, 0u);
}

TEST(MobilityModel, WeekendsUseTheLeisureWindow) {
  const auto towers = make_towers();
  MobilityOptions options;
  options.n_users = 10;
  const auto model = MobilityModel::create(towers, options);
  const auto& user = model.users().front();
  // Day 5 = Saturday.
  EXPECT_EQ(model.place_at(user, TimeGrid::slot_at(5, 14, 0)),
            UserPlace::kLeisure);
  EXPECT_EQ(model.place_at(user, TimeGrid::slot_at(5, 9, 0)),
            UserPlace::kHome);
  EXPECT_EQ(model.place_at(user, TimeGrid::slot_at(5, 21, 0)),
            UserPlace::kHome);
}

TEST(MobilityModel, ValidatesOptions) {
  const auto towers = make_towers(30);
  MobilityOptions bad;
  bad.n_users = 0;
  EXPECT_THROW(MobilityModel::create(towers, bad), Error);
  EXPECT_THROW(MobilityModel::create({}, MobilityOptions{}), Error);
}

TEST(ActivityLevel, PeaksDuringTheDayAndBottomsAtNight) {
  EXPECT_GT(activity_level(13.0), activity_level(4.0));
  EXPECT_GT(activity_level(20.5), activity_level(4.0));
  EXPECT_LT(activity_level(4.0), 0.15);
  for (double h = 0.0; h < 24.0; h += 0.5) {
    EXPECT_GT(activity_level(h), 0.0);
    EXPECT_LE(activity_level(h), 1.0);
  }
}

TEST(MobilityTrace, LogsFollowTheSchedule) {
  const auto towers = make_towers();
  MobilityOptions mobility_options;
  mobility_options.n_users = 60;
  const auto model = MobilityModel::create(towers, mobility_options);
  MobilityTraceOptions trace_options;
  trace_options.day_begin = 0;
  trace_options.day_end = 1;  // one Monday
  const auto logs = generate_mobility_trace(towers, model, trace_options);
  ASSERT_FALSE(logs.empty());

  // Every log's tower must match the user's scheduled tower at that slot.
  for (const auto& log : logs) {
    const auto& user = model.users()[log.user_id];
    const std::size_t slot = log.start_minute / TimeGrid::kSlotMinutes;
    EXPECT_EQ(log.tower_id, model.tower_at(user, slot));
  }
}

TEST(MobilityTrace, IsSortedAndDeterministic) {
  const auto towers = make_towers(60);
  const auto model = MobilityModel::create(towers, MobilityOptions{});
  MobilityTraceOptions options;
  options.day_begin = 0;
  options.day_end = 1;
  const auto a = generate_mobility_trace(towers, model, options);
  const auto b = generate_mobility_trace(towers, model, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_LE(a[i - 1].start_minute, a[i].start_minute);
  EXPECT_EQ(a, b);
}

TEST(MobilityTrace, NightActivityIsSparse) {
  const auto towers = make_towers(60);
  const auto model = MobilityModel::create(towers, MobilityOptions{});
  MobilityTraceOptions options;
  options.day_begin = 0;
  options.day_end = 1;
  const auto logs = generate_mobility_trace(towers, model, options);
  std::size_t night = 0;
  std::size_t midday = 0;
  for (const auto& log : logs) {
    const int hour = static_cast<int>(log.start_minute / 60) % 24;
    if (hour >= 2 && hour < 5) ++night;
    if (hour >= 11 && hour < 14) ++midday;
  }
  EXPECT_GT(midday, 4 * night);
}

/// ext_commute_flows' week over the 200-tower city of seed 2015: 600
/// users, days 0-5.
struct CommuteWeek {
  std::vector<Tower> towers;
  std::vector<TrafficLog> logs;
};

CommuteWeek commute_week() {
  ExperimentConfig config;
  config.seed = 2015;
  config.n_towers = 200;
  const CityRecipe recipe = city_recipe(config);
  const auto city = CityModel::create_default(recipe.city_seed);
  CommuteWeek week{deploy_towers(city, recipe.deployment), {}};
  MobilityOptions mobility_options;
  mobility_options.n_users = 600;
  mobility_options.seed = config.seed * 3 + 1;
  MobilityTraceOptions trace_options;
  trace_options.day_begin = 0;
  trace_options.day_end = 5;
  week.logs = generate_mobility_trace(
      week.towers, MobilityModel::create(week.towers, mobility_options),
      trace_options);
  return week;
}

TEST(MobilityTrace, PinsTheCommuteWeek) {
  // FNV-1a 64 over every field of every record of the week.
  const auto logs = commute_week().logs;
  std::uint64_t hash = kFnv1aBasis;
  for (const auto& log : logs) {
    hash = fnv1a(&log.user_id, sizeof log.user_id, hash);
    hash = fnv1a(&log.tower_id, sizeof log.tower_id, hash);
    hash = fnv1a(&log.start_minute, sizeof log.start_minute, hash);
    hash = fnv1a(&log.end_minute, sizeof log.end_minute, hash);
    hash = fnv1a(&log.bytes, sizeof log.bytes, hash);
    hash = fnv1a(log.address.data(), log.address.size(), hash);
  }
  EXPECT_EQ(logs.size(), 67414u);
  EXPECT_EQ(hash, 0x38e5cf94c5a37f1cull);
}

TEST(MobilityTrace, PinsTheRushHourFlowsOfTheCommuteWeek) {
  // ext_commute_flows' morning (6:00-11:00) and evening (16:00-21:00)
  // matrices over the week, with the towers' true regions in place of
  // the clustering's: FNV-1a 64 over both count arrays.
  const auto week = commute_week();
  std::vector<FunctionalRegion> regions(week.towers.size());
  for (const auto& tower : week.towers) regions[tower.id] = tower.true_region;
  const auto am = commute_flows(week.logs, regions,
                                {.hour_begin = 6.0, .hour_end = 11.0});
  const auto pm = commute_flows(week.logs, regions,
                                {.hour_begin = 16.0, .hour_end = 21.0});
  std::uint64_t hash = fnv1a(&am.counts, sizeof am.counts);
  hash = fnv1a(&pm.counts, sizeof pm.counts, hash);
  EXPECT_EQ(am.total_cross(), 1256u);
  EXPECT_EQ(pm.total_cross(), 2722u);
  EXPECT_EQ(hash, 0xafad6e0fc3bea660ull);
}

}  // namespace
}  // namespace cellscope
