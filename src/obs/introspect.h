// Introspection endpoint registry — live, queryable telemetry over a
// running process.
//
// The obs stack surfaces state at process exit (run reports, bench JSON);
// the EndpointRegistry makes the same state observable *while the process
// runs*. It is a socket-free path → handler table; the query daemon's
// QueryServer (server/server.h) is the one HTTP stack that serves it —
// QueryService::dispatch falls through to handle() for every GET it does
// not route itself. Built-in endpoints:
//
//   /metrics       Prometheus text exposition of the MetricsRegistry
//   /metrics.json  the registry's JSON snapshot
//   /healthz       QualityBoard verdicts; 200 when no check failed,
//                  503 otherwise — a liveness/readiness probe
//
// Components register further endpoints with set_handler() — the
// StreamIngestor mounts /stream (per-shard queue depth, drops,
// watermarks, lag). Handlers run on the server's worker threads; they
// must be thread-safe against the instrumented process (everything built
// on MetricsRegistry/QualityBoard already is).
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace cellscope::obs {

/// One HTTP response. Handlers fill status/content_type/body; the
/// server adds the status line and framing headers.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Process-wide table of GET endpoints, keyed by exact path.
class EndpointRegistry {
 public:
  using Handler = std::function<HttpResponse()>;

  /// The process-global instance (leaked, like every obs singleton, so
  /// exit-time handler deregistration stays safe).
  static EndpointRegistry& instance();

  EndpointRegistry();

  /// Registers (or replaces) the GET handler for an exact path. `owner`
  /// tags the registration so remove_handler can be scoped: a component
  /// deregistering in its destructor only removes the handler if it is
  /// still the one it installed (a later registrant wins).
  void set_handler(const std::string& path, Handler handler,
                   const void* owner = nullptr);

  /// Removes `path`'s handler. With a non-null `owner`, removes it only
  /// when the current registration carries that owner tag. Blocks until
  /// any in-flight invocation of a handler has finished, so a component
  /// may safely destroy itself right after deregistering. (Corollary:
  /// never call remove_handler from inside a handler.)
  void remove_handler(const std::string& path, const void* owner = nullptr);

  /// Dispatches one request path (query strings are ignored) through the
  /// handler table. Unknown paths get 404; a throwing handler gets 500
  /// with the exception text.
  HttpResponse handle(std::string_view path) const;

  EndpointRegistry(const EndpointRegistry&) = delete;
  EndpointRegistry& operator=(const EndpointRegistry&) = delete;

 private:
  mutable std::mutex mutex_;       // guards handlers_
  mutable std::mutex exec_mutex_;  // held while a handler runs
  struct Registration {
    Handler handler;
    const void* owner = nullptr;
  };
  std::map<std::string, Registration, std::less<>> handlers_;
};

}  // namespace cellscope::obs
