// Perf: introspection-plane overhead. Not part of the regression gate —
// this bench exists to *measure* the cost of the observability features
// against the tracing-off baseline, so the numbers in DESIGN.md §7 stay
// honest:
//   - streaming replay with record tracing off vs sampled (1-in-1024,
//     1-in-64) vs every record — the tracing-off case must match the
//     gated perf_stream throughput;
//   - one Prometheus /metrics render and one /stream status render, the
//     per-scrape cost a polling collector pays.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <vector>

#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace_sample.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/trace_generator.h"

namespace {

using namespace cellscope;

/// The uniform load-test feed (traffic/trace_generator.h), generated
/// once and reused by every case.
std::vector<TrafficLog> cached_feed(std::size_t n_records,
                                    std::uint32_t n_towers) {
  static std::vector<TrafficLog> cache;
  static std::size_t cached_records = 0;
  if (cached_records != n_records) {
    cache = uniform_feed(n_records, n_towers, 4321);
    cached_records = n_records;
  }
  return cache;
}

/// Replay throughput at a given record-sampling rate (0 = tracing off).
void BM_ReplayWithSampling(benchmark::State& state) {
  const auto sample_every = static_cast<std::uint32_t>(state.range(0));
  const auto n_towers =
      static_cast<std::uint32_t>(cellscope::bench::bench_towers());
  const auto logs = cached_feed(1'000'000, n_towers);
  ThreadPool pool(default_thread_count());
  auto& sampler = obs::TraceSampler::instance();
  const auto saved = sampler.sample_every();
  sampler.set_sample_every(sample_every);
  for (auto _ : state) {
    StreamIngestor ingestor(
        StreamConfig{.n_shards = 4, .queue_capacity = 0});
    ReplayOptions options;
    options.batch_size = 16384;
    const auto stats = replay_trace(logs, ingestor, pool, options);
    benchmark::DoNotOptimize(stats.ingest.accepted);
    state.PauseTiming();
    obs::StageTrace::instance().clear();  // re-arm the retention cap
    state.ResumeTiming();
  }
  sampler.set_sample_every(saved);
  state.SetItemsProcessed(static_cast<std::int64_t>(logs.size()) *
                          state.iterations());
}
// 0 = off (must match gated perf_stream), then 1-in-1024, 1-in-64, every.
BENCHMARK(BM_ReplayWithSampling)->Arg(0)->Arg(1024)->Arg(64)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Prometheus text render — the per-scrape cost of GET /metrics.
void BM_PrometheusSnapshot(benchmark::State& state) {
  auto& registry = obs::MetricsRegistry::instance();
  // Populate a realistic registry shape once.
  for (int i = 0; i < 20; ++i)
    registry.counter("bench.introspect.counter" + std::to_string(i)).add(i);
  auto& hist = registry.histogram("bench.introspect.hist");
  for (int i = 0; i < 1000; ++i) hist.observe(static_cast<double>(i % 50));
  for (auto _ : state) {
    auto text = registry.snapshot_prometheus();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_PrometheusSnapshot)->Unit(benchmark::kMicrosecond);

/// /stream status render against a loaded ingestor.
void BM_StreamStatusJson(benchmark::State& state) {
  const auto n_towers =
      static_cast<std::uint32_t>(cellscope::bench::bench_towers());
  const auto logs = cached_feed(1'000'000, n_towers);
  ThreadPool pool(default_thread_count());
  StreamIngestor ingestor(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  ingestor.offer_batch(logs);
  ingestor.drain(pool);
  for (auto _ : state) {
    auto json = ingestor.status_json();
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_StreamStatusJson)->Unit(benchmark::kMicrosecond);

}  // namespace

CELLSCOPE_BENCH_JSON("perf_introspect");
