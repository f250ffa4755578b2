// http_fuzz — deterministic seeded mutation driver for the one HTTP wire
// parser (server/http.h) and the endpoint dispatch behind it (ctest label
// `fault`; no external deps).
//
// Starts from a corpus of valid requests against every endpoint of a
// QueryService with a published model, then runs N seeded rounds; each
// round mutates one request (truncation, bit flips, inserted bytes,
// random paths and query strings, huge or negative Content-Length, an
// oversized head, POST /classify bodies with NaN, infinities, too few or
// too many slots, non-numeric entries, nesting a megabyte deep — or
// nothing, as a control) and
// feeds it to parse_http_request, then every request it parses (the
// pipelined remainder included) to QueryService::dispatch. Checked every
// round:
//   * nothing throws;
//   * kBad carries 400, 413 or 431;
//   * kOk consumes at least one byte and at most the buffer, and no body
//     exceeds HttpLimits::max_body_bytes;
//   * dispatch never answers 500 and never moves
//     cellscope.server.errors_500.
// Anything else fails the run.
//
// Usage: http_fuzz [iterations] [seed]   (defaults: 3000, 20151028)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <numbers>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/freq_features.h"
#include "common/string_util.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "server/http.h"
#include "server/query_service.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/tower_window.h"

namespace {

using namespace cellscope;
using namespace cellscope::server;

constexpr std::size_t kDay = TimeGrid::kSlotsPerDay;
constexpr std::size_t kWeek = TimeGrid::kSlotsPerWeek;

/// Bytes in slot `slot` of a daily sine shifted by `phase` quarter days.
std::uint64_t profile_bytes(std::size_t slot, int phase) {
  const double angle = 2.0 * std::numbers::pi *
                       static_cast<double>((slot + phase * kDay / 4) % kDay) /
                       kDay;
  return static_cast<std::uint64_t>(2000.0 + 1500.0 * std::sin(angle));
}

TowerWindow profile_window(int phase, std::size_t n_slots) {
  TowerWindow window;
  for (std::size_t slot = 0; slot < n_slots; ++slot)
    window.add(slot * TimeGrid::kSlotMinutes, profile_bytes(slot, phase));
  return window;
}

/// Four phase-shifted daily shapes, one per pure region, with primary
/// features so /classify runs the convex decomposition too.
ModelSnapshot fuzz_model() {
  ModelSnapshot model;
  for (int r = 0; r < 4; ++r) {
    const TowerWindow window = profile_window(r, TimeGrid::kSlots);
    model.centroids.push_back(window.folded_week());
    model.regions.push_back(static_cast<FunctionalRegion>(r));
    model.populations.push_back(static_cast<std::size_t>(r + 1));
    model.primary_features[r] =
        compute_freq_features(window.zscored()).qp_feature();
  }
  model.has_primaries = true;
  return model;
}

std::string post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n";
}

/// A JSON array of `n` entries; entry i is `entry(i)`.
template <typename Entry>
std::string json_array(std::size_t n, Entry entry) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += entry(i);
  }
  return out + "]";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

class Fuzzer {
 public:
  Fuzzer(std::uint64_t seed, std::vector<double> week)
      : rng_(seed), week_(std::move(week)) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  /// One valid request, uniformly over the endpoints.
  std::string valid_request() {
    switch (below(10)) {
      case 0: return get("/towers/" + std::to_string(below(6)) + "/class");
      case 1: return get("/towers/" + std::to_string(below(6)) + "/window");
      case 2:
        return get("/towers/" + std::to_string(below(6)) +
                   "/forecast?horizon=" + std::to_string(1 + below(400)));
      case 3: return get("/stats");
      case 4: return get("/metrics");
      case 5: return get("/healthz");
      case 6: return get("/stream");
      case 7: return post("/classify", week_body());
      case 8:
        return post("/classify", "{\"folded_week\":" + week_body() + "}");
      default:
        return "GET /metrics.json HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
    }
  }

  /// The training-like folded week, lightly perturbed.
  std::string week_body() {
    return json_array(kWeek, [&](std::size_t i) {
      return number(week_[i] + 0.01 * static_cast<double>(below(100)));
    });
  }

  /// A /classify body that is wrong in one way.
  std::string bad_week_body() {
    const std::size_t at = below(kWeek);
    static const char* const kPoison[] = {
        "NaN", "nan", "-NaN", "Infinity", "-inf", "INF", "1e999",
        "-1e999", "1e308", "-1.7976931348623157e308", "4.9e-324",
        "0x1p3", "\"1\"", "true", "null", "[]", "{}", "1..2", "--1", ""};
    switch (below(7)) {
      case 0: {  // one poisoned slot
        const std::string poison = kPoison[below(std::size(kPoison))];
        return json_array(kWeek, [&](std::size_t i) {
          return i == at ? poison : number(week_[i]);
        });
      }
      case 1:  // every slot huge but finite
        return json_array(kWeek, [&](std::size_t) {
          return number(1e300 * static_cast<double>(1 + below(9)));
        });
      case 2:  // too short
        return json_array(below(kWeek),
                          [&](std::size_t i) { return number(week_[i]); });
      case 3:  // too long
        return json_array(kWeek + 1 + below(2 * kWeek), [&](std::size_t i) {
          return number(week_[i % kWeek]);
        });
      case 4:  // wrong shape entirely
        return kPoison[below(std::size(kPoison))];
      case 5:  // nested where a number belongs
        return json_array(kWeek, [&](std::size_t i) {
          return i == at ? std::string("[[[1]]]") : number(week_[i]);
        });
      default:  // nested past any stack, just inside the body limit
        return std::string(HttpLimits{}.max_body_bytes - below(1024), '[');
    }
  }

  std::string random_path() {
    static const char* const kLeaves[] = {"class", "window", "forecast",
                                          "",      "class/", "x"};
    static const char* const kIds[] = {
        "0", "1", "4294967295", "4294967296", "-1", "+1", "01", "",
        "99999999999999999999", "1e3", "0x10", " 1"};
    std::string path;
    switch (below(4)) {
      case 0:
        path = std::string("/towers/") + kIds[below(std::size(kIds))] + "/" +
               kLeaves[below(std::size(kLeaves))];
        break;
      case 1:
        path = "/towers/" + std::to_string(below(6));
        break;
      case 2: {
        static const char* const kKnown[] = {
            "/stats", "/classify", "/metrics", "/metrics.json",
            "/healthz", "/stream", "/", "//", "/towers/", "/towers"};
        path = kKnown[below(std::size(kKnown))];
        break;
      }
      default:
        path = "/";
        for (std::uint64_t n = below(24); n > 0; --n)
          path += static_cast<char>(33 + below(94));  // printable, no space
    }
    if (below(2) == 0) {
      static const char* const kKeys[] = {"horizon", "x", "", "horizon="};
      static const char* const kValues[] = {
          "0", "1", "4032", "4033", "-5", "abc", "", "18446744073709551616",
          "144&horizon=7", "%20"};
      path += "?";
      for (std::uint64_t n = 1 + below(3); n > 0; --n) {
        path += std::string(kKeys[below(std::size(kKeys))]) + "=" +
                kValues[below(std::size(kValues))];
        if (n > 1) path += "&";
      }
    }
    return path;
  }

  std::string content_length_value() {
    static const char* const kLengths[] = {
        "-1", "+5", "0x10", " 12", "12 ", "1 2", "", "abc",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999999", "1048576", "1048577", "0"};
    return kLengths[below(std::size(kLengths))];
  }

  /// One mutated request buffer.
  std::string mutated() {
    std::string request = valid_request();
    switch (below(10)) {
      case 0:  // control
        break;
      case 1:  // truncate anywhere (including to empty)
        request.resize(below(request.size() + 1));
        break;
      case 2: {  // flip 1..8 bits
        for (std::uint64_t f = 1 + below(8); f > 0; --f) {
          const std::size_t p = below(request.size());
          request[p] = static_cast<char>(request[p] ^ (1u << below(8)));
        }
        break;
      }
      case 3: {  // insert random bytes
        const std::size_t p = below(request.size() + 1);
        std::string junk;
        for (std::uint64_t n = 1 + below(16); n > 0; --n)
          junk += static_cast<char>(below(256));
        request.insert(p, junk);
        break;
      }
      case 4:  // random path and query string
        request = below(2) == 0 ? get(random_path())
                                : post(random_path(), bad_week_body());
        break;
      case 5:  // a Content-Length that lies or overflows
        request = "POST /classify HTTP/1.1\r\nContent-Length: " +
                  content_length_value() + "\r\n\r\n" + week_body();
        break;
      case 6:  // a /classify body damaged in one way
        request = post("/classify", bad_week_body());
        break;
      case 7:  // pipelined: a second request behind the first
        request += valid_request();
        break;
      case 8:  // oversized head
        request.insert(request.find("\r\n") + 2,
                       "X-Pad: " + std::string(8000 + below(400), 'a') +
                           "\r\n");
        break;
      default:  // a chunked body, which the parser refuses
        request = "POST /classify HTTP/1.1\r\nTransfer-Encoding: chunked"
                  "\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
    }
    return request;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> week_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::uint64_t> iterations =
      argc > 1 ? parse_u64(argv[1]) : 3000;
  const std::optional<std::uint64_t> seed =
      argc > 2 ? parse_u64(argv[2]) : 20151028;
  if (!iterations || !seed) {
    std::fprintf(stderr, "usage: http_fuzz [iterations] [seed]\n");
    return 2;
  }

  ThreadPool pool(1);
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  // Towers 0..3 hold a full grid (class and forecast answer 200), tower 4
  // a few slots (cold start, forecast 409); tower 5 has no window (404).
  for (std::uint32_t tower = 0; tower < 5; ++tower) {
    const std::size_t n_slots = tower < 4 ? TimeGrid::kSlots : 10;
    std::vector<TrafficLog> logs(n_slots);
    for (std::size_t slot = 0; slot < n_slots; ++slot) {
      logs[slot].tower_id = tower;
      logs[slot].start_minute =
          static_cast<std::uint32_t>(slot * TimeGrid::kSlotMinutes);
      logs[slot].end_minute = logs[slot].start_minute;
      logs[slot].bytes = profile_bytes(slot, static_cast<int>(tower % 4));
    }
    ingestor.offer_batch(logs);
  }
  ingestor.drain(pool);

  QueryService service(ingestor, &pool);
  const ModelSnapshot model = fuzz_model();
  std::vector<double> week = model.centroids[0];
  service.publish_model(std::make_shared<const OnlineClassifier>(model));

  const HttpLimits limits;
  const obs::Counter& errors_500 = *ServerMetrics::instance().errors_500;
  Fuzzer fuzzer(*seed, std::move(week));
  std::map<int, std::uint64_t> statuses;  // parse rejections and replies
  std::uint64_t need_more = 0;
  int failures = 0;
  const auto fail = [&](std::uint64_t round, const std::string& what) {
    std::fprintf(stderr, "FAIL round %llu: %s\n",
                 static_cast<unsigned long long>(round), what.c_str());
    ++failures;
  };

  for (std::uint64_t round = 0; round < *iterations; ++round) {
    std::string buffer = fuzzer.mutated();
    try {
      // Answer every request the buffer holds, as the server loop does.
      while (true) {
        HttpRequest request;
        const ParseResult parsed = parse_http_request(buffer, request, limits);
        if (parsed.status == ParseStatus::kNeedMore) {
          if (!buffer.empty()) ++need_more;
          break;
        }
        if (parsed.status == ParseStatus::kBad) {
          ++statuses[parsed.error_status];
          if (parsed.error_status != 400 && parsed.error_status != 413 &&
              parsed.error_status != 431)
            fail(round, "kBad with status " +
                            std::to_string(parsed.error_status));
          break;
        }
        if (parsed.consumed == 0 || parsed.consumed > buffer.size()) {
          fail(round, "consumed " + std::to_string(parsed.consumed) +
                          " of " + std::to_string(buffer.size()) + " bytes");
          break;  // the buffer cannot advance
        }
        if (request.body.size() > limits.max_body_bytes)
          fail(round, "body of " + std::to_string(request.body.size()) +
                          " bytes passed the limit");

        const std::uint64_t errors_before = errors_500.value();
        const HttpResponse response = service.dispatch(request);
        ++statuses[response.status];
        if (response.status == 500 || errors_500.value() != errors_before)
          fail(round, request.method + " " + request.path + "?" +
                          request.query + " answered " +
                          std::to_string(response.status) + ": " +
                          response.body.substr(0, 200));
        buffer.erase(0, parsed.consumed);
      }
    } catch (const std::exception& e) {
      fail(round, std::string("escaped exception: ") + e.what());
    }
  }

  std::printf("http_fuzz: %llu rounds (seed %llu): %llu incomplete,",
              static_cast<unsigned long long>(*iterations),
              static_cast<unsigned long long>(*seed),
              static_cast<unsigned long long>(need_more));
  for (const auto& [status, count] : statuses)
    std::printf(" %d x%llu", status, static_cast<unsigned long long>(count));
  std::printf(", %d failures\n", failures);
  return failures == 0 ? 0 : 1;
}
