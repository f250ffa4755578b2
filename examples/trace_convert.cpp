// Trace conversion / inspection tool for the columnar ingest path
// (README "Full-scale ingest").
//
//   trace_convert synth <out> [--records=N] [--towers=N] [--seed=S]
//       write the calibrated month of the city experiment seed S builds
//       (codec by extension: .csv or .ctb/.bin)
//   trace_convert convert <in> <out> [--chunk=N]
//       re-encode a trace between codecs, streaming (out-of-core)
//   trace_convert merge <out> <in1> <in2> [...]
//       concatenate columnar traces by verbatim chunk copy + index rebuild
//   trace_convert info <file>
//       print a columnar file's chunk index summary
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "core/experiment.h"
#include "flag_util.h"
#include "obs/timer.h"
#include "stream/replay.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"

namespace {

using namespace cellscope;

int usage() {
  std::cerr << "usage:\n"
               "  trace_convert synth <out> [--records=N] [--towers=N]"
               " [--seed=S]\n"
               "  trace_convert convert <in> <out> [--chunk=N]\n"
               "  trace_convert merge <out> <in1> <in2> [...]\n"
               "  trace_convert info <file>\n";
  return 2;
}

/// Writes the calibrated month of the city that `seed` and `n_towers`
/// build (calibrated_feed over the towers and intensity model of
/// Experiment::run's stages 1–2, no POIs, no training): the month
/// cellscoped --towers=n_towers --records=n_records replays in round 1
/// when `seed` is its experiment seed. The month is held in memory, as
/// its arrival order needs.
int cmd_synth(const std::string& out, std::size_t n_records,
              std::uint32_t n_towers, std::uint64_t seed) {
  obs::ScopedTimer timer;
  ExperimentConfig config;
  config.seed = seed;
  config.n_towers = n_towers;
  const CityRecipe recipe = city_recipe(config);
  const auto city = CityModel::create_default(recipe.city_seed);
  const auto towers = deploy_towers(city, recipe.deployment);
  const auto intensity = IntensityModel::create(towers, recipe.intensity);
  const TraceResult feed = calibrated_feed(towers, intensity, seed, n_records);
  write_trace(out, feed.logs);
  std::cout << out << ": " << feed.logs.size() << " records ("
            << n_records << " expected, " << feed.duplicates_injected
            << " duplicates, " << feed.conflicts_injected << " conflicts) over "
            << n_towers << " towers in " << timer.elapsed_ms() << " ms\n";
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out,
                std::size_t chunk_records) {
  auto reader = open_trace_reader(in);
  auto writer = open_trace_writer(out, TraceCodec::kAuto, chunk_records);
  obs::ScopedTimer timer;
  std::uint64_t records = 0;
  std::vector<TrafficLog> batch;
  while (reader->next_batch(batch)) {
    writer->append(batch);
    records += batch.size();
  }
  writer->finish();
  const double ms = timer.elapsed_ms();
  std::cout << in << " -> " << out << ": " << records << " records in " << ms
            << " ms ("
            << static_cast<std::uint64_t>(ms > 0.0 ? records / (ms / 1e3) : 0)
            << " rec/s)\n";
  return 0;
}

int cmd_merge(const std::string& out, const std::vector<std::string>& inputs) {
  obs::ScopedTimer timer;
  const std::uint64_t records = merge_trace_bin(inputs, out);
  std::cout << out << ": merged " << inputs.size() << " files, " << records
            << " records in " << timer.elapsed_ms() << " ms\n";
  return 0;
}

int cmd_info(const std::string& path) {
  MmapTraceReader reader(path);
  std::cout << path << ": " << reader.record_count() << " records in "
            << reader.chunk_count() << " chunks, " << reader.bytes_mapped()
            << " bytes\n";
  const std::size_t show = std::min<std::size_t>(reader.chunk_count(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& entry = reader.chunk(i);
    std::cout << "  chunk " << i << ": offset " << entry.offset << ", "
              << entry.n_records << " records, towers [" << entry.min_tower
              << ", " << entry.max_tower << "], minutes [" << entry.min_minute
              << ", " << entry.max_minute << "]\n";
  }
  if (show < reader.chunk_count())
    std::cout << "  ... " << reader.chunk_count() - show << " more chunks\n";

  // Footer-index summary over every chunk (not just the ones shown): the
  // operator's sanity check before pointing the daemon at this file.
  if (reader.chunk_count() > 0) {
    std::uint32_t min_tower = reader.chunk(0).min_tower;
    std::uint32_t max_tower = reader.chunk(0).max_tower;
    std::uint64_t min_minute = reader.chunk(0).min_minute;
    std::uint64_t max_minute = reader.chunk(0).max_minute;
    for (std::size_t i = 1; i < reader.chunk_count(); ++i) {
      const auto& entry = reader.chunk(i);
      min_tower = std::min(min_tower, entry.min_tower);
      max_tower = std::max(max_tower, entry.max_tower);
      min_minute = std::min<std::uint64_t>(min_minute, entry.min_minute);
      max_minute = std::max<std::uint64_t>(max_minute, entry.max_minute);
    }
    std::cout << "index summary: " << reader.chunk_count()
              << " chunks, towers [" << min_tower << ", " << max_tower
              << "], minutes [" << min_minute << ", " << max_minute
              << "]\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  std::vector<std::string> positional;
  std::size_t records = 1'000'000;
  std::uint32_t towers = 9600;
  std::uint64_t seed = ExperimentConfig{}.seed;
  std::size_t chunk = columnar::kDefaultChunkRecords;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (auto v = examples::flag_u64(arg, "--records", 1)) records = *v;
    else if (auto v = examples::flag_u64(arg, "--towers", 1, UINT32_MAX))
      towers = static_cast<std::uint32_t>(*v);
    else if (auto v = examples::flag_u64(arg, "--seed")) seed = *v;
    else if (auto v = examples::flag_u64(arg, "--chunk", 1)) chunk = *v;
    else if (arg.starts_with("--")) {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    } else {
      positional.emplace_back(arg);
    }
  }

  try {
    if (command == "synth" && positional.size() == 1)
      return cmd_synth(positional[0], records, towers, seed);
    if (command == "convert" && positional.size() == 2)
      return cmd_convert(positional[0], positional[1], chunk);
    if (command == "merge" && positional.size() >= 3)
      return cmd_merge(positional[0],
                       {positional.begin() + 1, positional.end()});
    if (command == "info" && positional.size() == 1)
      return cmd_info(positional[0]);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
