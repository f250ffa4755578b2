// User mobility model — the human layer under the traffic patterns.
//
// The paper's frequency analysis reads commuting out of tower traffic
// ("the human migration flow from home to office via transport during
// rush hours", §5.2). This module models that flow generatively: each
// subscriber gets a home tower, possibly a workplace tower, a commute
// schedule routed past a transport tower, and weekend leisure behavior.
// The mobility-aware trace generator (generate_mobility_trace) then emits
// connection logs from wherever each user *is*, so per-user tower
// transitions in the logs encode the commute — measurable by the
// commute-flow analysis and the ext_commute_flows bench.
#pragma once

#include <cstdint>
#include <vector>

#include "city/tower.h"
#include "common/rng.h"
#include "common/time_grid.h"

namespace cellscope {

/// Where a user is during one slot.
enum class UserPlace : int {
  kHome = 0,
  kTransit = 1,
  kWork = 2,
  kLeisure = 3,
};

/// One subscriber's latent profile.
struct UserProfile {
  std::uint64_t user_id = 0;
  std::uint32_t home_tower = 0;
  std::uint32_t work_tower = 0;     ///< valid iff employed
  std::uint32_t transit_tower = 0;  ///< transport tower on the commute
  std::uint32_t leisure_tower = 0;  ///< weekend destination
  bool employed = true;
  double commute_out_h = 8.0;   ///< leave home (hour of day)
  double commute_back_h = 18.0; ///< leave work
  double transit_minutes = 40.0;
};

/// Probability that a user is employed (commutes on weekdays).
inline constexpr double kEmploymentRate = 0.75;

/// Mobility-model options.
struct MobilityOptions {
  std::size_t n_users = 2000;
  std::uint64_t seed = 20140801;
};

/// Assigns every user a home/work/transit/leisure tower and a schedule,
/// and answers "where is user u at slot s".
class MobilityModel {
 public:
  /// Builds profiles over a deployment. Homes are drawn from resident and
  /// comprehensive towers, workplaces from office/comprehensive, transit
  /// stops from transport towers (nearest to the home-work midpoint),
  /// leisure destinations from entertainment towers. Falls back to any
  /// tower when a category is absent.
  static MobilityModel create(const std::vector<Tower>& towers,
                              const MobilityOptions& options);

  const std::vector<UserProfile>& users() const { return users_; }

  /// The user's place during an absolute slot (deterministic schedule;
  /// weekends use the leisure pattern).
  UserPlace place_at(const UserProfile& user, std::size_t slot) const;

  /// The tower the user camps on during an absolute slot.
  std::uint32_t tower_at(const UserProfile& user, std::size_t slot) const;

 private:
  explicit MobilityModel(std::vector<UserProfile> users);

  std::vector<UserProfile> users_;
};

}  // namespace cellscope
