#include "pipeline/vectorizer.h"

#include <span>
#include <unordered_map>

#include "common/error.h"
#include "mapred/mapreduce.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

TrafficMatrix vectorize_logs(const std::vector<TrafficLog>& logs,
                             const std::vector<Tower>& towers,
                             ThreadPool& pool,
                             const VectorizerOptions& options) {
  CS_CHECK_MSG(!towers.empty(), "need at least one tower");

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

  // Map: log -> ((tower, slot), bytes); combine: sum. Keys are packed into
  // one 64-bit integer — the shuffle key of the Hadoop job.
  obs::ScopedTimer timer;
  MapReduceOptions mr;
  mr.chunk_size = options.chunk_size;
  const auto aggregated = map_reduce<TrafficLog, std::uint64_t, double>(
      std::span<const TrafficLog>(logs), pool,
      [&row_of](const TrafficLog& log,
                const std::function<void(const std::uint64_t&, double)>&
                    emit) {
        if (!row_of.contains(log.tower_id)) return;  // unknown tower
        const std::uint64_t slot =
            log.start_minute / TimeGrid::kSlotMinutes;
        if (slot >= TimeGrid::kSlots) return;  // outside the 4-week grid
        const std::uint64_t key =
            (static_cast<std::uint64_t>(log.tower_id) << 32) | slot;
        emit(key, static_cast<double>(log.bytes));
      },
      [](double& acc, double value) { acc += value; }, mr);

  double total_bytes = 0.0;
  for (const auto& [key, bytes] : aggregated) {
    const auto tower_id = static_cast<std::uint32_t>(key >> 32);
    const auto slot = static_cast<std::size_t>(key & 0xFFFFFFFFULL);
    matrix.rows[row_of.at(tower_id)][slot] = bytes;
    total_bytes += bytes;
  }
  matrix.check();

  const std::size_t n_chunks =
      logs.empty() ? 0 : (logs.size() + mr.chunk_size - 1) / mr.chunk_size;
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.pipeline.vectorizer_chunks").add(n_chunks);
  registry.counter("cellscope.pipeline.vectorizer_logs").add(logs.size());
  registry.counter("cellscope.pipeline.vectorizer_bytes")
      .add(static_cast<std::uint64_t>(total_bytes));
  obs::log_debug("vectorizer.logs_done",
                 {{"logs", logs.size()},
                  {"chunks", n_chunks},
                  {"towers", towers.size()},
                  {"bytes", total_bytes},
                  {"wall_ms", timer.elapsed_ms()}});
  return matrix;
}

TrafficMatrix vectorize_intensity(const std::vector<Tower>& towers,
                                  const IntensityModel& intensity,
                                  std::uint64_t seed, ThreadPool* pool) {
  CS_CHECK_MSG(towers.size() == intensity.size(),
               "towers and intensity model must match");
  obs::ScopedTimer timer;
  // Fork every tower's stream first, serially in tower order, so row i
  // draws from the same Rng whichever worker samples it. The rows are
  // reserved here too: workers fill them in place, so the matrix lives in
  // the caller's allocator arena rather than scattered over the workers'.
  Rng rng(seed);
  std::vector<Rng> tower_rngs;
  tower_rngs.reserve(towers.size());
  TrafficMatrix matrix;
  matrix.tower_ids.reserve(towers.size());
  matrix.rows.resize(towers.size());
  for (std::size_t i = 0; i < towers.size(); ++i) {
    tower_rngs.push_back(rng.fork());
    matrix.tower_ids.push_back(towers[i].id);
    matrix.rows[i].reserve(TimeGrid::kSlots);
  }
  const auto sample_row = [&](std::size_t i) {
    intensity.sample_series(towers[i].id, tower_rngs[i], matrix.rows[i]);
  };
  if (pool != nullptr && pool->thread_count() > 1) {
    pool->parallel_for(towers.size(), sample_row);
  } else {
    for (std::size_t i = 0; i < towers.size(); ++i) sample_row(i);
  }
  matrix.check();
  obs::MetricsRegistry::instance()
      .counter("cellscope.pipeline.vectorizer_rows")
      .add(matrix.n());
  obs::log_debug("vectorizer.intensity_done",
                 {{"towers", towers.size()},
                  {"wall_ms", timer.elapsed_ms()}});
  return matrix;
}

}  // namespace cellscope
