// The query daemon's endpoint layer — socket-free request dispatch over
// the live stream (DESIGN.md §11).
//
// A QueryService binds one StreamIngestor (the live state) to an
// epoch-published OnlineClassifier (the frozen model) and answers HTTP
// requests about them:
//
//   GET  /towers/<id>/class        live classification of one tower
//   GET  /towers/<id>/window       rolling-window stats (O(1), no copy)
//   GET  /towers/<id>/forecast     pattern-template forecast
//                                  (?horizon=N slots, default one day)
//   POST /classify                 classify a posted folded week:
//                                  pattern + convex component weights
//   GET  /stats                    serving-plane view: per-endpoint
//                                  request counts and latency quantiles,
//                                  shed counters, model epoch, ingest
//   GET  /metrics                  Prometheus text of the MetricsRegistry
//   GET  /metrics.json             the registry's JSON snapshot
//   GET  /healthz                  QualityBoard verdicts; 200, or 503
//                                  once any check has failed
//   GET  /stream                   this service's ingestor: per-shard
//                                  queue depth, drops, watermarks, lag
//   GET  <anything else>           404
//
// Model publication is RCU-style: publish_model() swaps a
// shared_ptr<const OnlineClassifier> under a lock held for just the
// pointer exchange; an in-flight request keeps the epoch it loaded
// alive until it finishes, so a swap never waits for — and never makes
// anything wait beyond a pointer copy for — readers or ingest. Reads against tower state go
// through the ingestor's lock-disciplined accessors (window_stats under
// the shard lock for the O(1) endpoints, window_copy for the ones that
// need the full grid), so they interleave safely with concurrent
// offer/drain/ingest_columns traffic (the `-L server` TSan suite pins
// this).
//
// dispatch() is the unit-test seam: tests (and the daemon's socket loop)
// hand it a parsed HttpRequest and get the response without a port.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "server/http.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"

namespace cellscope {
class ThreadPool;
}

namespace cellscope::server {

/// Endpoint families, for per-endpoint latency attribution. kOther
/// covers /metrics, /metrics.json, /healthz, /stream and 404s.
enum class Endpoint {
  kClass = 0,
  kWindow,
  kForecast,
  kClassify,
  kStats,
  kOther,
};
inline constexpr std::size_t kEndpointCount = 6;

/// Canonical short name ("class", "window", ...), used in metric names
/// and the /stats body.
std::string_view endpoint_name(Endpoint endpoint);

/// Process-global serving-plane metrics (registered once, cached — the
/// same pattern as the stream ingestor's counters). Shared by the
/// service (request accounting) and the socket server (admission and
/// fault accounting).
struct ServerMetrics {
  static ServerMetrics& instance();

  obs::Counter* requests;       ///< cellscope.server.requests
  obs::Counter* errors_500;     ///< handler exceptions -> 500s
  obs::Counter* bad_requests;   ///< 400/413/431 parse rejections
  obs::Counter* shed_503;       ///< connections shed at admission
  obs::Counter* shed_429;       ///< requests shed under saturation
  obs::Counter* accept_errors;  ///< cellscope.server.accept_errors
  obs::Counter* reply_partial;  ///< cellscope.server.reply_partial
  obs::Gauge* connections;      ///< live client connections
  obs::Gauge* queue_depth;      ///< admitted connections awaiting a worker
  obs::Histogram* latency_ms[kEndpointCount];  ///< per-endpoint latency

 private:
  ServerMetrics();
};

/// Socket-free endpoint dispatcher over one ingestor + published model.
class QueryService {
 public:
  /// `pool`, when given, parallelizes nothing today but is plumbed for
  /// batch endpoints; both references must outlive the service.
  explicit QueryService(StreamIngestor& ingestor, ThreadPool* pool = nullptr);

  /// Atomically publishes a new model epoch. In-flight requests finish on
  /// the epoch they loaded; new requests see `model`. A null publish is
  /// rejected (the service would rather serve a stale model than none).
  void publish_model(std::shared_ptr<const OnlineClassifier> model);

  /// The current epoch's classifier (may be null before the first
  /// publish — model endpoints then answer 503).
  std::shared_ptr<const OnlineClassifier> model() const;

  /// Number of publish_model() calls so far (0 = never published);
  /// reported by /stats and every classification response so clients can
  /// correlate answers with model rollovers.
  std::uint64_t model_epoch() const;

  /// Routes one request. Never throws: handler exceptions become 500s
  /// (counted on cellscope.server.errors_500). When `endpoint_out` is
  /// non-null it receives the endpoint family for latency attribution.
  HttpResponse dispatch(const HttpRequest& request,
                        Endpoint* endpoint_out = nullptr) const;

  StreamIngestor& ingestor() const { return ingestor_; }

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

 private:
  HttpResponse dispatch_towers(const HttpRequest& request,
                               Endpoint* endpoint_out) const;
  HttpResponse handle_class(std::uint32_t tower_id) const;
  HttpResponse handle_window(std::uint32_t tower_id) const;
  HttpResponse handle_forecast(std::uint32_t tower_id,
                               const HttpRequest& request) const;
  HttpResponse handle_classify(const HttpRequest& request) const;
  HttpResponse handle_stats() const;

  StreamIngestor& ingestor_;
  ThreadPool* pool_;
  /// Guards only the pointer exchange; see publish_model() for why this
  /// is a mutex rather than std::atomic<shared_ptr>.
  mutable std::mutex model_mutex_;
  std::shared_ptr<const OnlineClassifier> model_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace cellscope::server
