#include "pipeline/vectorizer.h"

#include <algorithm>
#include <unordered_map>

#include "common/error.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

TrafficMatrix vectorize_logs(const std::vector<TrafficLog>& logs,
                             const std::vector<Tower>& towers,
                             ThreadPool& pool) {
  CS_CHECK_MSG(!towers.empty(), "need at least one tower");
  obs::ScopedTimer timer;

  std::unordered_map<std::uint32_t, std::size_t> row_of;
  row_of.reserve(towers.size());
  TrafficMatrix matrix;
  matrix.tower_ids.reserve(towers.size());
  for (const auto& t : towers) {
    row_of.emplace(t.id, matrix.tower_ids.size());
    matrix.tower_ids.push_back(t.id);
  }
  matrix.rows.assign(towers.size(),
                     std::vector<double>(TimeGrid::kSlots, 0.0));

  // Each log's row, resolved once; kSkip marks unknown towers and starts
  // outside the 4-week grid.
  constexpr std::size_t kSkip = static_cast<std::size_t>(-1);
  std::vector<std::size_t> log_row(logs.size(), kSkip);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const auto it = row_of.find(logs[i].tower_id);
    if (it != row_of.end() &&
        logs[i].start_minute / TimeGrid::kSlotMinutes < TimeGrid::kSlots)
      log_row[i] = it->second;
  }

  // One stripe of rows per worker. A stripe scans every log in input
  // order and adds only its own rows' logs, so each bin sees its logs in
  // input order whatever the stripe count.
  const std::size_t n_rows = towers.size();
  const std::size_t n_stripes = std::min(pool.thread_count(), n_rows);
  pool.parallel_for(n_stripes, [&](std::size_t stripe) {
    const std::size_t begin = stripe * n_rows / n_stripes;
    const std::size_t end = (stripe + 1) * n_rows / n_stripes;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      const std::size_t r = log_row[i];
      if (r < begin || r >= end) continue;  // kSkip is never in a stripe
      matrix.rows[r][logs[i].start_minute / TimeGrid::kSlotMinutes] +=
          static_cast<double>(logs[i].bytes);
    }
  });
  matrix.check();

  double total_bytes = 0.0;
  for (const auto& row : matrix.rows)
    for (const double bytes : row) total_bytes += bytes;
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.pipeline.vectorizer_logs").add(logs.size());
  registry.counter("cellscope.pipeline.vectorizer_bytes")
      .add(static_cast<std::uint64_t>(total_bytes));
  obs::log_debug("vectorizer.logs_done",
                 {{"logs", logs.size()},
                  {"towers", towers.size()},
                  {"stripes", n_stripes},
                  {"bytes", total_bytes},
                  {"wall_ms", timer.elapsed_ms()}});
  return matrix;
}

std::vector<Rng> fork_row_streams(std::uint64_t seed, std::size_t n_rows) {
  Rng rng(seed);
  std::vector<Rng> streams;
  streams.reserve(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) streams.push_back(rng.fork());
  obs::MetricsRegistry::instance()
      .counter("cellscope.pipeline.vectorizer_rows")
      .add(n_rows);
  return streams;
}

TrafficMatrix vectorize_intensity(const std::vector<Tower>& towers,
                                  const IntensityModel& intensity,
                                  std::uint64_t seed, ThreadPool* pool) {
  CS_CHECK_MSG(towers.size() == intensity.size(),
               "towers and intensity model must match");
  obs::ScopedTimer timer;
  auto tower_rngs = fork_row_streams(seed, towers.size());
  // The rows are reserved here: workers fill them in place, so the
  // matrix lives in the caller's allocator arena rather than scattered
  // over the workers'.
  TrafficMatrix matrix;
  matrix.tower_ids.reserve(towers.size());
  matrix.rows.resize(towers.size());
  for (std::size_t i = 0; i < towers.size(); ++i) {
    matrix.tower_ids.push_back(towers[i].id);
    matrix.rows[i].reserve(TimeGrid::kSlots);
  }
  for_each_index(pool, towers.size(), [&](std::size_t i) {
    intensity.sample_series(towers[i].id, tower_rngs[i], matrix.rows[i]);
  });
  matrix.check();
  obs::log_debug("vectorizer.intensity_done",
                 {{"towers", towers.size()},
                  {"wall_ms", timer.elapsed_ms()}});
  return matrix;
}

}  // namespace cellscope
