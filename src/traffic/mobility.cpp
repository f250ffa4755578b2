#include "traffic/mobility.h"

#include <limits>

#include "common/error.h"
#include "geo/latlon.h"

namespace cellscope {

namespace {

/// Indices of towers with the given region (or all towers if none).
std::vector<std::size_t> towers_of(const std::vector<Tower>& towers,
                                   std::initializer_list<FunctionalRegion>
                                       regions) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < towers.size(); ++i)
    for (const auto r : regions)
      if (towers[i].true_region == r) {
        out.push_back(i);
        break;
      }
  if (out.empty()) {
    out.resize(towers.size());
    for (std::size_t i = 0; i < towers.size(); ++i) out[i] = i;
  }
  return out;
}

std::size_t pick(const std::vector<std::size_t>& pool, Rng& rng) {
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

}  // namespace

MobilityModel MobilityModel::create(const std::vector<Tower>& towers,
                                    const MobilityOptions& options) {
  CS_CHECK_MSG(!towers.empty(), "need towers");
  CS_CHECK_MSG(options.n_users > 0, "need users");
  Rng rng(options.seed);

  const auto homes = towers_of(
      towers, {FunctionalRegion::kResident, FunctionalRegion::kComprehensive});
  const auto offices = towers_of(
      towers, {FunctionalRegion::kOffice, FunctionalRegion::kComprehensive});
  const auto stations = towers_of(towers, {FunctionalRegion::kTransport});
  const auto venues =
      towers_of(towers, {FunctionalRegion::kEntertainment,
                         FunctionalRegion::kComprehensive});

  std::vector<UserProfile> users;
  users.reserve(options.n_users);
  for (std::size_t u = 0; u < options.n_users; ++u) {
    UserProfile profile;
    profile.user_id = u;
    profile.home_tower =
        static_cast<std::uint32_t>(towers[pick(homes, rng)].id);
    profile.employed = rng.uniform() < kEmploymentRate;
    profile.work_tower =
        static_cast<std::uint32_t>(towers[pick(offices, rng)].id);
    profile.leisure_tower =
        static_cast<std::uint32_t>(towers[pick(venues, rng)].id);

    // Transit stop: the transport tower nearest the home-work midpoint.
    const auto& home_pos = towers[profile.home_tower].position;
    const auto& work_pos = towers[profile.work_tower].position;
    const LatLon midpoint{(home_pos.lat + work_pos.lat) / 2.0,
                          (home_pos.lon + work_pos.lon) / 2.0};
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_station = stations.front();
    for (const auto s : stations) {
      const double d = haversine_m(towers[s].position, midpoint);
      if (d < best) {
        best = d;
        best_station = s;
      }
    }
    profile.transit_tower = static_cast<std::uint32_t>(towers[best_station].id);

    profile.commute_out_h = rng.uniform(7.0, 9.0);
    profile.commute_back_h = rng.uniform(17.0, 19.0);
    profile.transit_minutes = rng.uniform(20.0, 60.0);
    users.push_back(profile);
  }
  return MobilityModel(std::move(users));
}

MobilityModel::MobilityModel(std::vector<UserProfile> users)
    : users_(std::move(users)) {}

UserPlace MobilityModel::place_at(const UserProfile& user,
                                  std::size_t slot) const {
  const double h = TimeGrid::hour_of_day(slot);
  if (!TimeGrid::is_weekday(slot)) {
    // Weekend: a leisure outing window; the model is deterministic per
    // user (the generator decides stochastically whether to emit traffic
    // there).
    if (h >= 12.0 && h < 18.0) return UserPlace::kLeisure;
    return UserPlace::kHome;
  }
  if (!user.employed) return UserPlace::kHome;

  const double transit_h = user.transit_minutes / 60.0;
  if (h < user.commute_out_h) return UserPlace::kHome;
  if (h < user.commute_out_h + transit_h) return UserPlace::kTransit;
  if (h < user.commute_back_h) return UserPlace::kWork;
  if (h < user.commute_back_h + transit_h) return UserPlace::kTransit;
  return UserPlace::kHome;
}

std::uint32_t MobilityModel::tower_at(const UserProfile& user,
                                      std::size_t slot) const {
  switch (place_at(user, slot)) {
    case UserPlace::kHome: return user.home_tower;
    case UserPlace::kTransit: return user.transit_tower;
    case UserPlace::kWork: return user.work_tower;
    case UserPlace::kLeisure: return user.leisure_tower;
  }
  throw Error("unreachable place");
}

}  // namespace cellscope
