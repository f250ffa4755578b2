// The traffic vectorizer — the paper's §3.2 system component.
//
// Converts cleaned connection logs into per-tower traffic vectors: each
// log's bytes are added to the 10-minute slot containing its start,
// yielding one 4032-entry vector per tower; z-scoring is applied
// downstream by zscore_rows (the paper's "normalization phase"). The
// paper runs this sum on Hadoop because its 1.96 B records span
// machines; here it is a direct per-bin sum on a thread pool.
//
// A second entry point builds the matrix directly from the intensity model
// — the fast path for the clustering/frequency experiments, which need
// thousands of towers but not session granularity (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <vector>

#include "city/tower.h"
#include "common/rng.h"
#include "mapred/thread_pool.h"
#include "pipeline/traffic_matrix.h"
#include "traffic/intensity_model.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Aggregates cleaned logs into a TrafficMatrix. Rows appear for every
/// tower in `towers` (towers with no traffic get all-zero rows); logs whose
/// tower id is unknown, or whose start falls outside the 4-week grid, are
/// ignored (the cleaner should have dropped them). Each bin adds its logs
/// in input order, whatever the pool size, so the result is bit-identical
/// across pools. This is the batch oracle the stream ingestor is checked
/// against, so it shares no code with the ingestor (DESIGN.md §8).
TrafficMatrix vectorize_logs(const std::vector<TrafficLog>& logs,
                             const std::vector<Tower>& towers,
                             ThreadPool& pool);

/// The per-row sampling streams behind vectorize_intensity: `n_rows`
/// forks of Rng(seed), taken serially in row (tower) order, so row i
/// draws from the same stream whichever worker samples it. A caller that
/// samples the rows itself (Experiment::run, one block at a time) gets
/// vectorize_intensity's rows bit for bit by passing stream i to
/// IntensityModel::sample_series for row i. Adds `n_rows` to the
/// cellscope.pipeline.vectorizer_rows counter.
std::vector<Rng> fork_row_streams(std::uint64_t seed, std::size_t n_rows);

/// Builds the matrix straight from the intensity model with per-slot
/// sampling noise — statistically what vectorize_logs(clean(generate()))
/// produces, minus session quantization. Deterministic in the seed: row i
/// is sampled from stream i of fork_row_streams(seed, towers.size()).
/// With a pool, rows are sampled in parallel; the result is bit-identical
/// to the serial (nullptr) path.
TrafficMatrix vectorize_intensity(const std::vector<Tower>& towers,
                                  const IntensityModel& intensity,
                                  std::uint64_t seed,
                                  ThreadPool* pool = nullptr);

}  // namespace cellscope
