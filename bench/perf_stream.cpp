// Perf: streaming ingest throughput (records/sec) vs shard count, drain
// cost, and the classify-all pass — the online path of DESIGN.md §9. The
// throughput target is >= 1M records/sec on 4 shards: offer_batch takes
// one stripe lock per shard per batch, so the per-record cost is a hash,
// a bucket append, and an integer bin update.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <vector>

#include "mapred/thread_pool.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/replay.h"
#include "traffic/trace_generator.h"

namespace {

using namespace cellscope;

/// The uniform load-test feed (traffic/trace_generator.h), generated
/// once per (records, towers) and reused by every case.
std::vector<TrafficLog> cached_feed(std::size_t n_records,
                                    std::uint32_t n_towers) {
  static std::vector<TrafficLog> cache;
  static std::size_t cached_records = 0;
  static std::uint32_t cached_towers = 0;
  if (cached_records != n_records || cached_towers != n_towers) {
    cache = uniform_feed(n_records, n_towers, 4321);
    cached_records = n_records;
    cached_towers = n_towers;
  }
  return cache;
}

/// Ingest throughput end to end (offer_batch + drain), by shard count.
void BM_StreamIngest(benchmark::State& state) {
  const auto n_shards = static_cast<std::size_t>(state.range(0));
  const auto n_towers =
      static_cast<std::uint32_t>(cellscope::bench::bench_towers());
  const auto logs = cached_feed(1'000'000, n_towers);
  ThreadPool pool(default_thread_count());
  for (auto _ : state) {
    StreamIngestor ingestor(
        StreamConfig{.n_shards = n_shards, .queue_capacity = 0});
    ReplayOptions options;
    options.batch_size = 16384;
    const auto stats = replay_trace(logs, ingestor, pool, options);
    benchmark::DoNotOptimize(stats.ingest.accepted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(logs.size()) *
                          state.iterations());
}
BENCHMARK(BM_StreamIngest)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// offer_batch alone — queueing cost without window application.
void BM_StreamOfferBatch(benchmark::State& state) {
  const auto n_towers =
      static_cast<std::uint32_t>(cellscope::bench::bench_towers());
  const auto logs = cached_feed(1'000'000, n_towers);
  ThreadPool pool(default_thread_count());
  for (auto _ : state) {
    StreamIngestor ingestor(
        StreamConfig{.n_shards = 4, .queue_capacity = 0});
    benchmark::DoNotOptimize(ingestor.offer_batch(logs));
    state.PauseTiming();
    ingestor.drain(pool);  // empty the queues outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(logs.size()) *
                          state.iterations());
}
BENCHMARK(BM_StreamOfferBatch)->Unit(benchmark::kMillisecond);

/// Folded-vector extraction for every tower (the snapshot the classifier
/// and any dashboard reads).
void BM_StreamFoldedVectors(benchmark::State& state) {
  const auto n_towers =
      static_cast<std::uint32_t>(cellscope::bench::bench_towers());
  const auto logs = cached_feed(1'000'000, n_towers);
  ThreadPool pool(default_thread_count());
  StreamIngestor ingestor(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  ingestor.offer_batch(logs);
  ingestor.drain(pool);
  for (auto _ : state) {
    auto folded = ingestor.folded_vectors(&pool);
    benchmark::DoNotOptimize(folded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n_towers) *
                          state.iterations());
}
BENCHMARK(BM_StreamFoldedVectors)->Unit(benchmark::kMillisecond);

/// Full online classification pass against the shared trained model.
void BM_StreamClassifyAll(benchmark::State& state) {
  const auto& experiment = cellscope::bench::experiment();
  const OnlineClassifier classifier(snapshot_model(experiment));
  const auto n_towers =
      static_cast<std::uint32_t>(cellscope::bench::bench_towers());
  const auto logs = cached_feed(1'000'000, n_towers);
  ThreadPool pool(default_thread_count());
  StreamIngestor ingestor(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  ingestor.offer_batch(logs);
  ingestor.drain(pool);
  for (auto _ : state) {
    auto labels = classifier.classify_all(ingestor, &pool);
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n_towers) *
                          state.iterations());
}
BENCHMARK(BM_StreamClassifyAll)->Unit(benchmark::kMillisecond);

}  // namespace

CELLSCOPE_BENCH_JSON("perf_stream");
