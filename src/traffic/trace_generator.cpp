#include "traffic/trace_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.h"
#include "common/rng.h"

namespace cellscope {

namespace {

/// Mean session duration in minutes (exponential).
constexpr double kMeanSessionMinutes = 8.0;

}  // namespace

TraceResult generate_trace(const std::vector<Tower>& towers,
                           const IntensityModel& intensity,
                           const TraceOptions& options) {
  CS_CHECK_MSG(!towers.empty(), "need at least one tower");
  CS_CHECK_MSG(towers.size() == intensity.size(),
               "towers and intensity model must match");
  CS_CHECK_MSG(options.n_users > 0, "need at least one user");
  CS_CHECK_MSG(options.mean_session_bytes > 0.0,
               "mean_session_bytes must be positive");
  CS_CHECK_MSG(options.duplicate_prob >= 0.0 && options.duplicate_prob <= 1.0,
               "duplicate_prob must be a probability");
  CS_CHECK_MSG(options.conflict_prob >= 0.0 && options.conflict_prob <= 1.0,
               "conflict_prob must be a probability");
  CS_CHECK_MSG(
      options.day_begin >= 0 && options.day_begin < options.day_end &&
          options.day_end <= TimeGrid::kDays,
      "day window must satisfy 0 <= day_begin < day_end <= 28");

  Rng rng(options.seed);
  TraceResult result;

  const auto slot_begin = static_cast<std::size_t>(options.day_begin) *
                          TimeGrid::kSlotsPerDay;
  const auto slot_end =
      static_cast<std::size_t>(options.day_end) * TimeGrid::kSlotsPerDay;
  const std::uint32_t grid_end_minute =
      static_cast<std::uint32_t>(TimeGrid::kSlots) * TimeGrid::kSlotMinutes;

  // Heavy-tailed user sampling: square a uniform so a few ids dominate,
  // like real subscriber usage distributions.
  auto draw_user = [&]() {
    const double u = rng.uniform();
    return static_cast<std::uint64_t>(
        u * u * static_cast<double>(options.n_users));
  };

  // A device opens at most one connection per minute per tower, so the
  // (user, tower, start-minute) triple identifies a connection — the key
  // the cleaner deduplicates on. Track used keys per tower to avoid
  // accidental collisions between legitimate sessions.
  std::unordered_set<std::uint64_t> used_keys;

  for (const auto& tower : towers) {
    Rng tower_rng = rng.fork();
    used_keys.clear();
    const auto expected = intensity.sample_series(tower.id, tower_rng);
    for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
      const double slot_bytes = expected[slot];
      if (slot_bytes <= 0.0) continue;
      const double mean_sessions = slot_bytes / options.mean_session_bytes;
      const auto n_sessions = tower_rng.poisson(mean_sessions);
      if (n_sessions == 0) continue;
      // Split the slot's bytes over its sessions with Dirichlet(1) shares
      // so the slot total stays calibrated to the intensity model.
      std::vector<double> shares =
          n_sessions == 1
              ? std::vector<double>{1.0}
              : tower_rng.dirichlet(std::vector<double>(
                    static_cast<std::size_t>(n_sessions), 1.0));
      for (std::int64_t s = 0; s < n_sessions; ++s) {
        TrafficLog log;
        log.tower_id = tower.id;
        log.address = tower.address;
        // Draw a (user, start-minute) pair not used at this tower yet;
        // give up after a few attempts (the slot is then saturated).
        bool found_key = false;
        for (int attempt = 0; attempt < 16 && !found_key; ++attempt) {
          log.user_id = draw_user();
          const auto offset = static_cast<std::uint32_t>(
              tower_rng.uniform_int(0, TimeGrid::kSlotMinutes - 1));
          log.start_minute =
              static_cast<std::uint32_t>(slot) * TimeGrid::kSlotMinutes +
              offset;
          const std::uint64_t key =
              (log.user_id << 16) | log.start_minute;
          found_key = used_keys.insert(key).second;
        }
        if (!found_key) continue;  // saturated slot; skip this session
        const double duration =
            tower_rng.exponential(1.0 / kMeanSessionMinutes);
        log.end_minute = std::min(
            grid_end_minute,
            log.start_minute + 1 +
                static_cast<std::uint32_t>(std::min(duration, 1e4)));
        log.bytes = static_cast<std::uint64_t>(
            std::max(1.0, slot_bytes * shares[static_cast<std::size_t>(s)]));

        result.logs.push_back(log);

        // Inject data-quality defects the cleaner must remove.
        if (tower_rng.uniform() < options.duplicate_prob) {
          result.logs.push_back(result.logs.back());
          ++result.duplicates_injected;
        }
        if (tower_rng.uniform() < options.conflict_prob) {
          TrafficLog conflict = log;
          // A re-logged connection with a stale, smaller byte count and a
          // different end time; the cleaner keeps the larger record.
          conflict.bytes = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(
                     static_cast<double>(log.bytes) *
                     tower_rng.uniform(0.2, 0.8)));
          conflict.end_minute = log.start_minute + 1;
          result.logs.push_back(std::move(conflict));
          ++result.conflicts_injected;
        }
      }
    }
  }
  return result;
}

std::vector<TrafficLog> uniform_feed(std::size_t n_records,
                                     std::uint32_t n_towers,
                                     std::uint64_t seed) {
  CS_CHECK_MSG(n_towers >= 1, "need at least one tower");
  Rng rng(seed);
  std::vector<TrafficLog> logs;
  logs.reserve(n_records);
  constexpr std::uint64_t kGridMinutes =
      TimeGrid::kSlots * TimeGrid::kSlotMinutes;
  for (std::size_t i = 0; i < n_records; ++i) {
    TrafficLog log;
    log.user_id = static_cast<std::uint64_t>(rng.uniform_int(0, 99999));
    log.tower_id = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_towers) - 1));
    const auto base = i * kGridMinutes / n_records;
    log.start_minute = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kGridMinutes - 1,
        base + static_cast<std::uint64_t>(rng.uniform_int(0, 30))));
    log.end_minute =
        log.start_minute + static_cast<std::uint32_t>(rng.uniform_int(0, 15));
    log.bytes = static_cast<std::uint64_t>(rng.uniform_int(100, 200000));
    logs.push_back(log);
  }
  return logs;
}

}  // namespace cellscope
