#include "server/query_service.h"

#include <cmath>
#include <cstdio>

#include "analysis/component_analysis.h"
#include "analysis/freq_features.h"
#include "city/functional_region.h"
#include "common/error.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/time_grid.h"
#include "obs/metrics.h"

namespace cellscope::server {

namespace {

/// Round-trip-exact double for response bodies: 17 significant digits,
/// so a client parsing the JSON recovers the server's double bit for bit
/// (the `-L server` bit-identity tests depend on this).
std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

HttpResponse json_response(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

HttpResponse error_response(int status, std::string_view message) {
  // Messages can carry exception text (paths, quotes) — escape so the
  // body stays valid JSON no matter what e.what() contains.
  return json_response(status,
                       "{\"error\":\"" + obs::json_escape(message) + "\"}");
}

std::string classification_json(const Classification& c,
                                std::uint64_t epoch) {
  std::string json = "{\"cluster\":" + std::to_string(c.cluster);
  json += ",\"region\":\"" + region_name(c.region) + "\"";
  json += ",\"distance\":" + json_double(c.distance);
  json += ",\"confidence\":" + json_double(c.confidence);
  json += std::string(",\"cold_start\":") + (c.cold_start ? "true" : "false");
  json += ",\"model_epoch\":" + std::to_string(epoch) + "}";
  return json;
}

}  // namespace

std::string_view endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kClass:
      return "class";
    case Endpoint::kWindow:
      return "window";
    case Endpoint::kForecast:
      return "forecast";
    case Endpoint::kClassify:
      return "classify";
    case Endpoint::kStats:
      return "stats";
    case Endpoint::kOther:
      return "other";
  }
  return "other";
}

ServerMetrics::ServerMetrics() {
  auto& registry = obs::MetricsRegistry::instance();
  requests = &registry.counter("cellscope.server.requests");
  errors_500 = &registry.counter("cellscope.server.errors_500");
  bad_requests = &registry.counter("cellscope.server.bad_requests");
  shed_503 = &registry.counter("cellscope.server.shed_503");
  shed_429 = &registry.counter("cellscope.server.shed_429");
  accept_errors = &registry.counter("cellscope.server.accept_errors");
  reply_partial = &registry.counter("cellscope.server.reply_partial");
  connections = &registry.gauge("cellscope.server.connections");
  queue_depth = &registry.gauge("cellscope.server.queue_depth");
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    latency_ms[e] = &registry.histogram(
        "cellscope.server.latency_ms." +
        std::string(endpoint_name(static_cast<Endpoint>(e))));
  }
}

ServerMetrics& ServerMetrics::instance() {
  static ServerMetrics* metrics = new ServerMetrics;  // leaked like obs
  return *metrics;
}

QueryService::QueryService(StreamIngestor& ingestor, ThreadPool* pool)
    : ingestor_(ingestor), pool_(pool) {
  ServerMetrics::instance();  // force registration before serving starts
}

void QueryService::publish_model(
    std::shared_ptr<const OnlineClassifier> model) {
  CS_CHECK_MSG(model != nullptr, "cannot publish a null model");
  // RCU swap: the lock covers only the pointer exchange, so a publish
  // holds up readers for one pointer copy at most; readers holding the
  // old shared_ptr keep that epoch alive past the swap. (A mutex, not
  // std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its spin
  // bit with relaxed ordering in load(), which ThreadSanitizer cannot
  // prove race-free.) The epoch counter is advanced after the swap, so
  // a reader pairing model() with model_epoch() may see epoch N with
  // model N+1 during a rollover — never the reverse (a stale model
  // with a new epoch number).
  {
    const std::lock_guard<std::mutex> lock(model_mutex_);
    model_ = std::move(model);
  }
  epoch_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const OnlineClassifier> QueryService::model() const {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

std::uint64_t QueryService::model_epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

HttpResponse QueryService::dispatch(const HttpRequest& request,
                                    Endpoint* endpoint_out) const {
  Endpoint endpoint = Endpoint::kOther;
  HttpResponse response;
  try {
    if (request.path.starts_with("/towers/")) {
      response = dispatch_towers(request, &endpoint);
    } else if (request.path == "/classify") {
      endpoint = Endpoint::kClassify;
      response = request.method == "POST"
                     ? handle_classify(request)
                     : error_response(405, "POST a folded week to /classify");
    } else if (request.path == "/stats") {
      endpoint = Endpoint::kStats;
      response = request.method == "GET"
                     ? handle_stats()
                     : error_response(405, "only GET is supported");
    } else if (request.method == "GET") {
      // The introspection endpoints (/metrics, /metrics.json, /healthz,
      // /stream) plus the registry's 404 for the rest.
      response = obs::EndpointRegistry::instance().handle(request.path);
    } else {
      response = error_response(405, "only GET is supported");
    }
  } catch (const std::exception& e) {
    ServerMetrics::instance().errors_500->add(1);
    response = error_response(500, e.what());
  }
  if (endpoint_out != nullptr) *endpoint_out = endpoint;
  return response;
}

HttpResponse QueryService::dispatch_towers(const HttpRequest& request,
                                           Endpoint* endpoint_out) const {
  // "/towers/<id>/<leaf>"
  const std::string_view path = request.path;
  const std::string_view rest = path.substr(8);  // after "/towers/"
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos)
    return error_response(404, "expected /towers/<id>/<endpoint>");
  const auto id = parse_u64(rest.substr(0, slash));
  if (!id.has_value() || *id > 0xffffffffu)
    return error_response(400, "tower id must be a 32-bit integer");
  const std::string_view leaf = rest.substr(slash + 1);
  if (request.method != "GET")
    return error_response(405, "only GET is supported");
  const auto tower_id = static_cast<std::uint32_t>(*id);
  if (leaf == "class") {
    *endpoint_out = Endpoint::kClass;
    return handle_class(tower_id);
  }
  if (leaf == "window") {
    *endpoint_out = Endpoint::kWindow;
    return handle_window(tower_id);
  }
  if (leaf == "forecast") {
    *endpoint_out = Endpoint::kForecast;
    return handle_forecast(tower_id, request);
  }
  return error_response(404, "unknown tower endpoint");
}

HttpResponse QueryService::handle_class(std::uint32_t tower_id) const {
  const auto classifier = model();
  if (classifier == nullptr)
    return error_response(503, "no model published yet");
  const std::uint64_t epoch = model_epoch();
  TowerWindow window;
  try {
    window = ingestor_.window_copy(tower_id);
  } catch (const InvalidArgument&) {
    return error_response(404, "no window for this tower");
  }
  const Classification c = classifier->classify(window);
  std::string json = "{\"tower\":" + std::to_string(tower_id);
  json += ",\"classification\":" + classification_json(c, epoch) + "}";
  return json_response(200, std::move(json));
}

HttpResponse QueryService::handle_window(std::uint32_t tower_id) const {
  TowerWindowStats stats;
  try {
    stats = ingestor_.window_stats(tower_id);
  } catch (const InvalidArgument&) {
    return error_response(404, "no window for this tower");
  }
  std::string json = "{\"tower\":" + std::to_string(tower_id);
  json += ",\"observed_slots\":" + std::to_string(stats.observed_slots);
  json += ",\"total_bytes\":" + std::to_string(stats.total_bytes);
  json += ",\"mean\":" + json_double(stats.mean);
  json += ",\"variance\":" + json_double(stats.variance);
  json += ",\"latest_minute\":" + std::to_string(stats.latest_minute);
  json += ",\"latest_cycle\":" + std::to_string(stats.latest_cycle) + "}";
  return json_response(200, std::move(json));
}

HttpResponse QueryService::handle_forecast(std::uint32_t tower_id,
                                           const HttpRequest& request) const {
  const auto classifier = model();
  if (classifier == nullptr)
    return error_response(503, "no model published yet");

  std::size_t horizon = TimeGrid::kSlotsPerDay;  // one day of slots
  if (const auto param = query_param(request, "horizon");
      param.has_value()) {
    const auto parsed = parse_u64(*param);
    if (!parsed.has_value() || *parsed == 0 || *parsed > TimeGrid::kSlots)
      return error_response(400, "horizon must be in [1, 4032] slots");
    horizon = static_cast<std::size_t>(*parsed);
  }

  TowerWindow window;
  try {
    window = ingestor_.window_copy(tower_id);
  } catch (const InvalidArgument&) {
    return error_response(404, "no window for this tower");
  }
  const auto history = window.observed_history();
  if (history.size() < PatternForecaster::kMinMatchSlots) {
    return json_response(
        409, "{\"error\":\"insufficient history for a forecast\","
             "\"observed_slots\":" +
                 std::to_string(history.size()) + ",\"required_slots\":" +
                 std::to_string(PatternForecaster::kMinMatchSlots) + "}");
  }

  const auto& forecaster = classifier->forecaster();
  const std::size_t matched = forecaster.match(history);
  const auto values = forecaster.forecast(history, horizon);
  std::string json = "{\"tower\":" + std::to_string(tower_id);
  json += ",\"horizon\":" + std::to_string(horizon);
  json += ",\"template\":" + std::to_string(matched);
  json += ",\"region\":\"" +
          region_name(classifier->model().regions[matched]) + "\"";
  json += ",\"model_epoch\":" + std::to_string(model_epoch());
  json += ",\"values\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) json += ',';
    json += json_double(values[i]);
  }
  json += "]}";
  return json_response(200, std::move(json));
}

HttpResponse QueryService::handle_classify(const HttpRequest& request) const {
  const auto classifier = model();
  if (classifier == nullptr)
    return error_response(503, "no model published yet");

  // Body: a bare JSON array of 1008 numbers, or {"folded_week":[...]}.
  std::vector<double> folded;
  try {
    const JsonValue doc = JsonValue::parse(request.body);
    const JsonValue::Array* array = nullptr;
    if (doc.is_array()) {
      array = &doc.as_array();
    } else if (doc.is_object() && doc.contains("folded_week") &&
               doc.at("folded_week").is_array()) {
      array = &doc.at("folded_week").as_array();
    } else {
      return error_response(
          400, "body must be a folded-week array or {folded_week:[...]}");
    }
    folded.reserve(array->size());
    for (const auto& v : *array) {
      // Finite only: NaN, infinities and numbers that overflow a double
      // have no distance to a centroid and no spectrum to decompose.
      if (!v.is_number() || !std::isfinite(v.as_number()))
        return error_response(400, "folded week must be all finite numbers");
      folded.push_back(v.as_number());
    }
  } catch (const InvalidArgument&) {
    return error_response(400, "malformed JSON body");
  }
  if (folded.size() != static_cast<std::size_t>(TimeGrid::kSlotsPerWeek))
    return error_response(400, "folded week must have 1008 slots");

  // Nearest folded-week centroid — the same scoring rule
  // OnlineClassifier::classify applies to a live window.
  const ModelSnapshot& snapshot = classifier->model();
  double best = 0.0;
  const std::size_t best_cluster = classifier->nearest_centroid(folded, &best);
  // A finite squared distance keeps every |slot| below ~1e152, so the
  // spectrum and the decomposition below stay finite too.
  if (!std::isfinite(best))
    return error_response(400, "folded week values are too large");

  std::string json = "{\"cluster\":" + std::to_string(best_cluster);
  json += ",\"region\":\"" +
          region_name(snapshot.regions[best_cluster]) + "\"";
  json += ",\"distance\":" + json_double(best);

  if (snapshot.has_primaries) {
    // Convex weights over the four primary components (§5.3): the posted
    // week is periodic by construction, so tiling it across the 4-week
    // grid reconstructs the month-long signal whose DFT carries the
    // (A28, P28, A56) feature the decomposition is defined on.
    std::vector<double> tiled;
    tiled.reserve(TimeGrid::kSlots);
    for (int rep = 0; rep < TimeGrid::kDays / TimeGrid::kDaysPerWeek; ++rep)
      tiled.insert(tiled.end(), folded.begin(), folded.end());
    const auto feature = compute_freq_features(tiled).qp_feature();
    const auto decomposition =
        decompose_feature(feature, snapshot.primary_features);
    json += ",\"weights\":[";
    for (std::size_t w = 0; w < decomposition.coefficients.size(); ++w) {
      if (w > 0) json += ',';
      json += json_double(decomposition.coefficients[w]);
    }
    json += "],\"residual\":" + json_double(decomposition.residual);
    json += ",\"confidence\":" +
            json_double(1.0 / (1.0 + decomposition.residual));
  } else {
    json += ",\"weights\":null,\"confidence\":" +
            json_double(1.0 / (1.0 + std::sqrt(best)));
  }
  json += ",\"model_epoch\":" + std::to_string(model_epoch()) + "}";
  return json_response(200, std::move(json));
}

HttpResponse QueryService::handle_stats() const {
  const auto& metrics = ServerMetrics::instance();
  std::string json = "{\"model_epoch\":" + std::to_string(model_epoch());
  json += ",\"model_published\":";
  json += model() != nullptr ? "true" : "false";
  json += ",\"requests\":" + std::to_string(metrics.requests->value());
  json += ",\"errors_500\":" + std::to_string(metrics.errors_500->value());
  json += ",\"bad_requests\":" +
          std::to_string(metrics.bad_requests->value());
  json += ",\"shed_503\":" + std::to_string(metrics.shed_503->value());
  json += ",\"shed_429\":" + std::to_string(metrics.shed_429->value());
  json += ",\"accept_errors\":" +
          std::to_string(metrics.accept_errors->value());
  json += ",\"reply_partial\":" +
          std::to_string(metrics.reply_partial->value());
  json += ",\"connections\":" +
          std::to_string(metrics.connections->value());
  json += ",\"queue_depth\":" + std::to_string(metrics.queue_depth->value());
  json += ",\"endpoints\":{";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto* histogram = metrics.latency_ms[e];
    if (e > 0) json += ',';
    json += "\"" + std::string(endpoint_name(static_cast<Endpoint>(e))) +
            "\":{\"requests\":" + std::to_string(histogram->count());
    json += ",\"p50_ms\":" + json_double(histogram->quantile(0.5));
    json += ",\"p99_ms\":" + json_double(histogram->quantile(0.99)) + "}";
  }
  json += "},\"ingest\":" + ingestor_.status_json() + "}";
  return json_response(200, std::move(json));
}

}  // namespace cellscope::server
