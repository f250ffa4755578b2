#include "traffic/mobility_trace.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace cellscope {

namespace {

/// Mean sessions per user per hour at the daily activity peak.
constexpr double kPeakSessionsPerHour = 1.5;
/// Lognormal session bytes: exp(N(mu, sigma)).
constexpr double kBytesMu = 11.0;  ///< median ≈ 60 KB
constexpr double kBytesSigma = 1.2;
/// Probability of a weekend leisure outing (12:00-18:00).
constexpr double kWeekendOutingProb = 0.6;

}  // namespace

double activity_level(double hour_of_day) {
  CS_CHECK_MSG(hour_of_day >= 0.0 && hour_of_day < 24.0, "hour out of range");
  // Two-bump activity: midday and evening, deep night minimum.
  auto bump = [&](double center, double sigma) {
    double d = std::fabs(hour_of_day - center);
    d = std::min(d, 24.0 - d);
    return std::exp(-d * d / (2.0 * sigma * sigma));
  };
  return 0.06 + 0.94 * std::min(1.0, bump(13.0, 3.5) + 0.9 * bump(20.5, 2.5));
}

std::vector<TrafficLog> generate_mobility_trace(
    const std::vector<Tower>& towers, const MobilityModel& mobility,
    const MobilityTraceOptions& options) {
  CS_CHECK_MSG(!towers.empty(), "need towers");
  CS_CHECK_MSG(options.day_begin >= 0 &&
                   options.day_begin < options.day_end &&
                   options.day_end <= TimeGrid::kDays,
               "day window must satisfy 0 <= begin < end <= 28");
  for (std::size_t i = 0; i < towers.size(); ++i)
    CS_CHECK_MSG(towers[i].id == i,
                 "mobility trace requires dense tower ids (deploy_towers)");

  Rng rng(options.seed);
  std::vector<TrafficLog> logs;

  const auto slot_begin = static_cast<std::size_t>(options.day_begin) *
                          TimeGrid::kSlotsPerDay;
  const auto slot_end =
      static_cast<std::size_t>(options.day_end) * TimeGrid::kSlotsPerDay;

  for (const auto& user : mobility.users()) {
    Rng user_rng = rng.fork();
    // Weekend outing decision per weekend day, cached per user.
    for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
      const double rate = kPeakSessionsPerHour / 6.0 *
                          activity_level(TimeGrid::hour_of_day(slot));
      const auto n_sessions = user_rng.poisson(rate);
      if (n_sessions == 0) continue;
      std::uint32_t tower_id = mobility.tower_at(user, slot);
      // Unemployed / homebody weekends: the mobility model reports the
      // leisure place for everyone; emulate the outing probability by
      // keeping some users home (deterministic per user+day).
      if (mobility.place_at(user, slot) == UserPlace::kLeisure) {
        Rng outing_rng(user.user_id * 31 +
                       static_cast<std::uint64_t>(TimeGrid::day(slot)));
        if (outing_rng.uniform() >= kWeekendOutingProb)
          tower_id = user.home_tower;
      }
      CS_CHECK_MSG(tower_id < towers.size(), "tower id out of range");
      for (std::int64_t s = 0; s < n_sessions; ++s) {
        TrafficLog log;
        log.user_id = user.user_id;
        log.tower_id = tower_id;
        log.address = towers[tower_id].address;
        log.start_minute =
            static_cast<std::uint32_t>(slot) * TimeGrid::kSlotMinutes +
            static_cast<std::uint32_t>(
                user_rng.uniform_int(0, TimeGrid::kSlotMinutes - 1));
        log.end_minute =
            log.start_minute + 1 +
            static_cast<std::uint32_t>(user_rng.exponential(1.0 / 6.0));
        log.bytes = static_cast<std::uint64_t>(std::max(
            1.0, user_rng.lognormal(kBytesMu, kBytesSigma)));
        logs.push_back(std::move(log));
      }
    }
  }

  std::sort(logs.begin(), logs.end(),
            [](const TrafficLog& a, const TrafficLog& b) {
              if (a.start_minute != b.start_minute)
                return a.start_minute < b.start_minute;
              return a.user_id < b.user_id;
            });
  return logs;
}

}  // namespace cellscope
