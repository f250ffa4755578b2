// Perf/ablation: the log vectorizer's throughput vs worker count, plus the
// cleaner stage.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "city/deployment.h"
#include "pipeline/cleaner.h"
#include "pipeline/vectorizer.h"
#include "traffic/trace_generator.h"

namespace {

using namespace cellscope;

struct Fixture {
  std::vector<Tower> towers;
  std::vector<TrafficLog> logs;
};

const Fixture& fixture() {
  static const Fixture instance = [] {
    Fixture f;
    const auto city = CityModel::create_default();
    DeploymentOptions deployment;
    deployment.n_towers = 12;
    f.towers = deploy_towers(city, deployment);
    const auto intensity =
        IntensityModel::create(f.towers, IntensityOptions{});
    TraceOptions options;
    options.day_begin = 0;
    options.day_end = 7;
    f.logs = generate_trace(f.towers, intensity, options).logs;
    return f;
  }();
  return instance;
}

void BM_VectorizeByThreads(benchmark::State& state) {
  const auto& f = fixture();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto matrix = vectorize_logs(f.logs, f.towers, pool);
    benchmark::DoNotOptimize(matrix);
  }
  state.counters["logs"] = static_cast<double>(f.logs.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(f.logs.size()) *
                          state.iterations());
}
// Real time: the rows are summed on the pool, so main-thread CPU time
// would overstate the rate.
BENCHMARK(BM_VectorizeByThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_Cleaner(benchmark::State& state) {
  const auto& f = fixture();
  for (auto _ : state) {
    auto logs = f.logs;  // cleaning consumes its input
    auto cleaned = clean_logs(std::move(logs));
    benchmark::DoNotOptimize(cleaned);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.logs.size()) *
                          state.iterations());
}
BENCHMARK(BM_Cleaner)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  const auto city = CityModel::create_default();
  DeploymentOptions deployment;
  deployment.n_towers = 8;
  const auto towers = deploy_towers(city, deployment);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  TraceOptions options;
  options.day_begin = 0;
  options.day_end = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto trace = generate_trace(towers, intensity, options);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(1)->Arg(7)->Unit(benchmark::kMillisecond);

}  // namespace

CELLSCOPE_BENCH_JSON("perf_mapred");
