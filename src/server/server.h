// The query daemon's socket layer (DESIGN.md §11) — the repo's one
// HTTP listener: a multi-client HTTP/1.1 loop over a worker pool that
// serves every QueryService endpoint, introspection ones included.
//
// Threading model: one acceptor thread plus `workers` worker threads.
// The acceptor admits connections into a bounded FIFO (the admission
// queue); each worker pops one connection and owns it for its whole
// keep-alive lifetime, so a request never migrates threads and
// per-connection state needs no locking. Pipelined requests on one
// connection are answered in order from the same buffer.
//
// Admission control (the shedding policy the fault drill pins):
//   * queue full at accept        -> 503 + close, cellscope.server.shed_503
//     (connection-level shed: the client never got a worker)
//   * queue still full when a worker is about to serve a request
//                                 -> 429 + Connection: close, shed_429
//     (backpressure to already-connected clients: finish what you sent,
//     then back off)
// Both are typed replies, never a silent drop, and neither path blocks
// the acceptor — overload degrades throughput, not liveness.
//
// Failpoints: `server.accept.fail` makes an accept attempt fail
// artificially (counted on cellscope.server.accept_errors, connection
// dropped); `server.reply.partial` truncates one response mid-write
// (counted on cellscope.server.reply_partial, connection closed) — the
// client sees a short read, never a corrupted frame followed by more
// traffic.
//
// stop() closes the listen socket, shuts down every live connection,
// drains the admission queue with 503s, joins all threads, and records
// the server.* quality sentinels (error ratio, shed ratio, partial
// replies) over this instance's delta of the process-global counters.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "server/query_service.h"

namespace cellscope::server {

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read it back with port() — how every test binds).
  std::uint16_t port = 0;
  /// Worker threads, in [1, kMaxThreads] (the constructor throws
  /// otherwise); each owns one connection at a time, so this is also
  /// the maximum number of concurrently-served connections.
  std::size_t workers = 4;
  /// Admission-queue capacity: connections accepted but not yet claimed
  /// by a worker. Beyond it the acceptor sheds with 503.
  std::size_t max_pending = 64;
  /// recv() timeout per read; an idle keep-alive connection is closed
  /// after this long (also bounds how long stop() can be held up).
  int read_timeout_ms = 5000;
  /// Wire-format bounds (head/body byte limits).
  HttpLimits limits;
};

/// Multi-threaded HTTP front-end over one QueryService.
class QueryServer {
 public:
  /// `service` must outlive the server.
  explicit QueryServer(QueryService& service, ServerConfig config = {});
  ~QueryServer();  ///< calls stop()

  /// Binds 127.0.0.1:<port>, starts the acceptor and workers. Throws
  /// IoError when the socket cannot be bound.
  void start();

  /// Stops accepting, closes every connection, joins all threads, and
  /// records the server.* sentinels. Idempotent.
  void stop();

  /// The bound port (resolved after start() when config.port was 0).
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  const ServerConfig& config() const { return config_; }

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// Admission-queue depth right now (the 429 saturation signal).
  std::size_t queue_depth() const;
  /// Best-effort framed reply + close, for sheds and parse rejections on
  /// connections no worker owns.
  void reply_and_close(int fd, const HttpResponse& response);
  /// write()s the whole frame, honoring the reply.partial failpoint.
  /// Returns false when the write was truncated or failed.
  bool write_frame(int fd, const std::string& frame);

  QueryService& service_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> admission_queue_;  // accepted fds awaiting a worker

  std::mutex active_mutex_;
  std::vector<int> active_fds_;  // connections currently owned by workers

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  /// Counter values at start(), for delta-based sentinels (the metrics
  /// are process-global and several servers may run in one process).
  std::uint64_t base_requests_ = 0;
  std::uint64_t base_errors_500_ = 0;
  std::uint64_t base_shed_503_ = 0;
  std::uint64_t base_shed_429_ = 0;
  std::uint64_t base_reply_partial_ = 0;
};

}  // namespace cellscope::server
