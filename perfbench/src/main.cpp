// CellScope end-to-end benchmark.
//
//   cellscope_perfbench --workload train_city|replay_city|serve_live
//                       --seed N --seconds N --trace 0|1
//                       [--rate REQ_PER_S] [--out DIR]
//
// Prints the host block and the workload's named figures, then — as the
// last line of stdout — one JSON object {"correct", "attempted", "failed",
// "metrics"}. Untraced runs (--trace 0) report the end-to-end metrics;
// traced runs (--trace 1) report the per-layer metrics and write their
// spans to DIR/spans-<workload>-<seed>.json. A failed correctness check
// prints the result line with "correct": false and no metrics, and exits 1.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "obs/log.h"
#include "bench.h"

namespace {

using namespace perfbench;

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every traced run reports these (BENCHMARK.json "per_layer"; run.py
/// checks the names of both metric sets). A layer a workload leaves idle
/// reads 0.
constexpr MetricName kPerLayer[] = {
    // train_city -> result_s
    {"city.deploy_ms", "ms"}, {"city.poi_generate_ms", "ms"},
    {"traffic.intensity_ms", "ms"}, {"pipeline.vectorize_ms", "ms"},
    {"pipeline.zscore_ms", "ms"}, {"pipeline.fold_ms", "ms"},
    {"ml.distance_ms", "ms"}, {"ml.distance_pairs", "count"},
    {"ml.linkage_ms", "ms"}, {"ml.dbi_sweep_ms", "ms"},
    {"analysis.poi_count_ms", "ms"}, {"analysis.label_ms", "ms"},
    {"stream.model_snapshot_ms", "ms"},
    // replay_city -> rate_per_s (ingest) and result_s (replay)
    {"traffic.decode_ms", "ms"}, {"traffic.chunks_read", "count"},
    {"traffic.bytes_mapped", "bytes"}, {"stream.window_create_ms", "ms"},
    {"stream.apply_ms", "ms"}, {"stream.records_applied", "count"},
    {"stream.late", "count"}, {"stream.stale", "count"},
    {"stream.dropped", "count"}, {"stream.classify_all_ms", "ms"},
    {"stream.cold_starts", "count"}, {"stream.snapshot_write_ms", "ms"},
    {"stream.snapshot_bytes", "bytes"},
    // serve_live -> result_s and rate_per_s (the closed loop)
    {"server.dispatch_us.window.p50", "us"},
    {"server.dispatch_us.window.p99", "us"},
    {"server.dispatch_us.class.p50", "us"},
    {"server.dispatch_us.class.p99", "us"},
    {"server.dispatch_us.forecast.p50", "us"},
    {"server.dispatch_us.forecast.p99", "us"},
    {"server.dispatch_us.classify.p50", "us"},
    {"server.dispatch_us.classify.p99", "us"},
    {"server.wire_us.p50", "us"}, {"server.wire_us.p99", "us"},
    {"stream.window_copy_us.p50", "us"}, {"stream.window_copy_us.p99", "us"},
    {"stream.classify_us.p50", "us"}, {"stream.classify_us.p99", "us"},
    {"ml.nearest_us.p50", "us"}, {"ml.nearest_us.p99", "us"},
    {"analysis.decompose_us.p50", "us"}, {"analysis.decompose_us.p99", "us"},
    {"forecast.match_us.p50", "us"}, {"forecast.match_us.p99", "us"},
    {"server.publish_us.p50", "us"}, {"server.publish_us.p99", "us"},
    {"stream.offer_ms", "ms"}, {"stream.drain_ms", "ms"},
    {"stream.feed_lag_ms", "ms"},
    {"server.shed_503", "count"}, {"server.shed_429", "count"},
    {"server.errors_500", "count"}, {"gen.late_ms", "ms"},
    // every workload
    {"trace.uncovered_share", "ratio"}, {"trace.overhead_share", "ratio"},
};

void fill_idle_layers(Outcome& out) {
  for (const auto& m : kPerLayer)
    if (out.metrics.count(m.name) == 0) out.set(m.name, 0.0, m.unit);
}

void print_result(const Outcome& out) {
  for (const auto& [name, metric] : out.report)
    std::printf("%-28s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  if (out.correct) {
    bool first = true;
    char value[64];
    for (const auto& [name, metric] : out.metrics) {
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
      json += std::string(first ? "" : ", ") + "\"" + name +
              "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
              "\"}";
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // Stage logs would interleave with the report; the library's own
  // spans and metrics stay on.
  cellscope::obs::Logger::instance().set_level(cellscope::obs::LogLevel::kWarn);

  const std::string host = host_json();
  std::printf("host %s\n", host.c_str());
  Outcome out;
  try {
    std::filesystem::create_directories(args.out_dir);
    SpanRecorder recorder;
    SpanRecorder* traced = args.trace ? &recorder : nullptr;
    if (args.workload == "train_city") run_train_city(args, out, traced);
    else if (args.workload == "replay_city") run_replay_city(args, out, traced);
    else run_serve_live(args, out, traced);
    if (traced != nullptr) {
      fill_idle_layers(out);
      const std::string path = args.out_dir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
      recorder.write_json(path, host);
      std::printf("spans written to %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    out.check(false, "workload threw");
  }
  print_result(out);
  return out.correct ? 0 : 1;
}
