#include "analysis/commute_flows.h"

#include <gtest/gtest.h>

#include "city/deployment.h"
#include "common/error.h"
#include "traffic/mobility_trace.h"

namespace cellscope {
namespace {

TrafficLog log_at(std::uint64_t user, std::uint32_t tower,
                  std::uint32_t minute) {
  TrafficLog log;
  log.user_id = user;
  log.tower_id = tower;
  log.start_minute = minute;
  log.end_minute = minute + 5;
  log.bytes = 100;
  return log;
}

TEST(CommuteFlows, CountsSimpleTransition) {
  // Tower 0 resident, tower 1 office; user moves 0 -> 1 at 8:30 Monday.
  const std::vector<FunctionalRegion> regions = {
      FunctionalRegion::kResident, FunctionalRegion::kOffice};
  const std::vector<TrafficLog> logs = {log_at(7, 0, 8 * 60),
                                        log_at(7, 1, 8 * 60 + 30)};
  FlowOptions options;
  const auto flows = commute_flows(logs, regions, options);
  EXPECT_EQ(
      flows.counts[static_cast<int>(FunctionalRegion::kResident)]
                  [static_cast<int>(FunctionalRegion::kOffice)],
      1u);
  EXPECT_EQ(flows.total_cross(), 1u);
  EXPECT_DOUBLE_EQ(
      flows.share(FunctionalRegion::kResident, FunctionalRegion::kOffice),
      1.0);
}

TEST(CommuteFlows, IgnoresSameTowerAndDifferentUsers) {
  const std::vector<FunctionalRegion> regions = {
      FunctionalRegion::kResident, FunctionalRegion::kOffice};
  const std::vector<TrafficLog> logs = {
      log_at(1, 0, 480), log_at(1, 0, 500),   // same tower
      log_at(2, 1, 510),                      // different user
  };
  EXPECT_EQ(commute_flows(logs, regions, FlowOptions{}).total_cross(), 0u);
}

TEST(CommuteFlows, GapLimitSplitsStalePairs) {
  // Pairs more than 120 minutes apart are not transitions.
  const std::vector<FunctionalRegion> regions = {
      FunctionalRegion::kResident, FunctionalRegion::kOffice};
  const std::vector<TrafficLog> stale = {log_at(1, 0, 480),
                                         log_at(1, 1, 480 + 300)};
  EXPECT_EQ(commute_flows(stale, regions, FlowOptions{}).total_cross(), 0u);
  const std::vector<TrafficLog> fresh = {log_at(1, 0, 480),
                                         log_at(1, 1, 480 + 100)};
  EXPECT_EQ(commute_flows(fresh, regions, FlowOptions{}).total_cross(), 1u);
}

TEST(CommuteFlows, HourWindowFilters) {
  const std::vector<FunctionalRegion> regions = {
      FunctionalRegion::kResident, FunctionalRegion::kOffice};
  const std::vector<TrafficLog> logs = {log_at(1, 0, 17 * 60),
                                        log_at(1, 1, 18 * 60)};
  FlowOptions morning;
  morning.hour_begin = 6.0;
  morning.hour_end = 11.0;
  EXPECT_EQ(commute_flows(logs, regions, morning).total_cross(), 0u);
  FlowOptions evening;
  evening.hour_begin = 16.0;
  evening.hour_end = 21.0;
  EXPECT_EQ(commute_flows(logs, regions, evening).total_cross(), 1u);
}

TEST(CommuteFlows, WeekendFilterWorks) {
  // Only weekday transitions count.
  const std::vector<FunctionalRegion> regions = {
      FunctionalRegion::kResident, FunctionalRegion::kEntertainment};
  // Saturday (day 5) 13:00.
  const std::uint32_t saturday = 5 * 24 * 60;
  const std::vector<TrafficLog> logs = {log_at(1, 0, saturday + 12 * 60),
                                        log_at(1, 1, saturday + 13 * 60)};
  EXPECT_EQ(commute_flows(logs, regions, FlowOptions{}).total_cross(), 0u);
}

TEST(CommuteFlows, UnsortedInputIsHandled) {
  const std::vector<FunctionalRegion> regions = {
      FunctionalRegion::kResident, FunctionalRegion::kOffice};
  const std::vector<TrafficLog> logs = {log_at(1, 1, 540),
                                        log_at(1, 0, 480)};
  const auto flows = commute_flows(logs, regions, FlowOptions{});
  EXPECT_EQ(
      flows.counts[static_cast<int>(FunctionalRegion::kResident)]
                  [static_cast<int>(FunctionalRegion::kOffice)],
      1u);
}

TEST(CommuteFlows, ValidatesInput) {
  FlowOptions bad;
  bad.hour_begin = 10.0;
  bad.hour_end = 5.0;
  EXPECT_THROW(commute_flows({}, {}, bad), Error);
  const std::vector<TrafficLog> logs = {log_at(1, 5, 480),
                                        log_at(1, 6, 500)};
  EXPECT_THROW(commute_flows(logs, {FunctionalRegion::kResident},
                             FlowOptions{}),
               Error);
}

TEST(CommuteFlows, MorningFlowsRunHomeToWorkOnMobilityTraces) {
  // The end-to-end claim: mobility-generated logs show the paper's
  // migration sequence in the morning and its reverse in the evening.
  const auto city = CityModel::create_default();
  DeploymentOptions deployment;
  deployment.n_towers = 300;
  const auto towers = deploy_towers(city, deployment);
  MobilityOptions mobility_options;
  mobility_options.n_users = 400;
  const auto model = MobilityModel::create(towers, mobility_options);
  MobilityTraceOptions trace_options;
  trace_options.day_begin = 0;
  trace_options.day_end = 5;  // one work week
  const auto logs = generate_mobility_trace(towers, model, trace_options);

  std::vector<FunctionalRegion> regions;
  for (const auto& t : towers) regions.push_back(t.true_region);

  FlowOptions morning;
  morning.hour_begin = 6.0;
  morning.hour_end = 11.0;
  const auto am = commute_flows(logs, regions, morning);
  FlowOptions evening;
  evening.hour_begin = 16.0;
  evening.hour_end = 21.0;
  const auto pm = commute_flows(logs, regions, evening);

  // Morning: flows *into* office exceed flows *out of* office.
  std::size_t into_office_am = 0;
  std::size_t out_of_office_am = 0;
  for (int r = 0; r < kNumRegions; ++r) {
    if (r == static_cast<int>(FunctionalRegion::kOffice)) continue;
    into_office_am += am.counts[r][static_cast<int>(FunctionalRegion::kOffice)];
    out_of_office_am +=
        am.counts[static_cast<int>(FunctionalRegion::kOffice)][r];
  }
  EXPECT_GT(into_office_am, 2 * out_of_office_am);

  // Evening: reversed.
  std::size_t into_office_pm = 0;
  std::size_t out_of_office_pm = 0;
  for (int r = 0; r < kNumRegions; ++r) {
    if (r == static_cast<int>(FunctionalRegion::kOffice)) continue;
    into_office_pm += pm.counts[r][static_cast<int>(FunctionalRegion::kOffice)];
    out_of_office_pm +=
        pm.counts[static_cast<int>(FunctionalRegion::kOffice)][r];
  }
  EXPECT_GT(out_of_office_pm, 2 * into_office_pm);

  // The commute routes through transport towers in both windows.
  EXPECT_GT(am.share(FunctionalRegion::kTransport, FunctionalRegion::kOffice),
            0.05);
  EXPECT_GT(pm.share(FunctionalRegion::kOffice, FunctionalRegion::kTransport),
            0.05);
}

}  // namespace
}  // namespace cellscope
