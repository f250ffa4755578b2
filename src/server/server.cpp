#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/error.h"
#include "common/failpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"

namespace cellscope::server {

namespace {

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

HttpResponse error_reply(int status, std::string_view reason) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":\"" + std::string(reason) + "\"}";
  return response;
}

}  // namespace

QueryServer::QueryServer(QueryService& service, ServerConfig config)
    : service_(service), config_(config) {
  CS_CHECK_MSG(config_.workers >= 1, "server needs at least one worker");
  CS_CHECK_MSG(config_.max_pending >= 1,
               "admission queue needs capacity >= 1");
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::start() {
  CS_CHECK_MSG(!running_.load(), "server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw IoError("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    close_quiet(listen_fd_);
    listen_fd_ = -1;
    throw IoError("bind(127.0.0.1:" + std::to_string(config_.port) +
                  "): " + why);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string why = strerror(errno);
    close_quiet(listen_fd_);
    listen_fd_ = -1;
    throw IoError("listen(): " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  const auto& metrics = ServerMetrics::instance();
  base_requests_ = metrics.requests->value();
  base_errors_500_ = metrics.errors_500->value();
  base_shed_503_ = metrics.shed_503->value();
  base_shed_429_ = metrics.shed_429->value();
  base_reply_partial_ = metrics.reply_partial->value();

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });

  obs::log_info("server.start",
                {{"port", static_cast<std::uint64_t>(port_)},
                 {"workers", config_.workers},
                 {"max_pending", config_.max_pending}});
}

void QueryServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // stopping_ is set under queue_mutex_ so the store is serialized with
  // the workers' wait-predicate check: a worker that saw (not stopping,
  // queue empty) cannot miss the notify below — it is either already
  // blocked in wait() or still holds the mutex we need first.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
  }

  // Unblock the acceptor, the workers waiting on the queue, and the
  // workers blocked in recv() on a live connection.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }

  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  close_quiet(listen_fd_);
  listen_fd_ = -1;

  // Admitted-but-unserved connections get a typed goodbye, not a reset.
  std::deque<int> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    leftover.swap(admission_queue_);
  }
  const auto& metrics = ServerMetrics::instance();
  for (int fd : leftover)
    reply_and_close(fd, error_reply(503, "server shutting down"));
  metrics.queue_depth->set(0);
  metrics.connections->set(0);

  // server.* sentinels over this instance's share of the counters. Sheds
  // are working-as-intended under saturation (warn, generous bound);
  // handler exceptions and truncated replies are not (fail / warn).
  {
    auto& board = obs::QualityBoard::instance();
    const std::uint64_t requests = metrics.requests->value() - base_requests_;
    const std::uint64_t errors = metrics.errors_500->value() - base_errors_500_;
    const std::uint64_t shed = (metrics.shed_503->value() - base_shed_503_) +
                               (metrics.shed_429->value() - base_shed_429_);
    const std::uint64_t partial =
        metrics.reply_partial->value() - base_reply_partial_;
    obs::StageSpan span("server.serve", "server");
    span.annotate({"requests", requests});
    span.annotate({"shed", shed});
    board.add_check("server.serve", "server_error_ratio",
                    obs::Severity::kFail, [errors, requests] {
                      return obs::check_reject_ratio(
                          static_cast<std::size_t>(errors),
                          static_cast<std::size_t>(requests), 0.01);
                    });
    board.add_check("server.serve", "server_shed_ratio", obs::Severity::kWarn,
                    [shed, requests] {
                      return obs::check_reject_ratio(
                          static_cast<std::size_t>(shed),
                          static_cast<std::size_t>(requests + shed), 0.5);
                    });
    board.add_check("server.serve", "server_reply_partial",
                    obs::Severity::kWarn, [partial] {
                      obs::CheckResult result;
                      result.passed = partial == 0;
                      result.value = static_cast<double>(partial);
                      result.detail =
                          std::to_string(partial) + " truncated replies";
                      return result;
                    });
  }
  obs::log_info("server.stop", {{"port", static_cast<std::uint64_t>(port_)}});
}

std::size_t QueryServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return admission_queue_.size();
}

void QueryServer::accept_loop() {
  auto& metrics = ServerMetrics::instance();
  while (!stopping_.load(std::memory_order_acquire)) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      close_quiet(client);
      break;
    }
    if (CS_FAILPOINT("server.accept.fail")) {
      // Simulated accept failure: the kernel handed us a connection the
      // daemon could not take over (fd exhaustion, interrupted accept).
      metrics.accept_errors->add(1);
      close_quiet(client);
      continue;
    }
    if (client < 0) {
      if (errno == EINTR) continue;
      metrics.accept_errors->add(1);
      // Persistent failures (EMFILE, ENFILE, ENOBUFS) would otherwise
      // busy-spin exactly when the process is resource-starved.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }

    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (admission_queue_.size() < config_.max_pending) {
        admission_queue_.push_back(client);
        metrics.queue_depth->set(
            static_cast<std::int64_t>(admission_queue_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      // Connection-level shed: no worker will ever see this fd.
      metrics.shed_503->add(1);
      reply_and_close(client, error_reply(503, "admission queue full"));
    }
  }
}

void QueryServer::worker_loop() {
  auto& metrics = ServerMetrics::instance();
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               !admission_queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      fd = admission_queue_.front();
      admission_queue_.pop_front();
      metrics.queue_depth->set(
          static_cast<std::int64_t>(admission_queue_.size()));
    }
    {
      std::lock_guard<std::mutex> lock(active_mutex_);
      active_fds_.push_back(fd);
    }
    metrics.connections->add(1);
    serve_connection(fd);
    metrics.connections->add(-1);
    {
      std::lock_guard<std::mutex> lock(active_mutex_);
      std::erase(active_fds_, fd);
    }
    close_quiet(fd);
  }
}

void QueryServer::serve_connection(int fd) {
  auto& metrics = ServerMetrics::instance();
  timeval timeout{};
  timeout.tv_sec = config_.read_timeout_ms / 1000;
  timeout.tv_usec = (config_.read_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buffer;
  char chunk[16384];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Answer every complete request already buffered (pipelining) before
    // going back to the socket.
    while (true) {
      HttpRequest request;
      const ParseResult parsed =
          parse_http_request(buffer, request, config_.limits);
      if (parsed.status == ParseStatus::kNeedMore) break;
      if (parsed.status == ParseStatus::kBad) {
        metrics.bad_requests->add(1);
        write_frame(fd, serialize_response(
                            error_reply(parsed.error_status, parsed.error),
                            /*keep_alive=*/false));
        return;  // framing is lost — nothing after this can be trusted
      }
      buffer.erase(0, parsed.consumed);

      if (queue_depth() >= config_.max_pending) {
        // Request-level shed: the admission queue is saturated, so push
        // back on connected clients too — typed reply, then close.
        metrics.shed_429->add(1);
        write_frame(fd, serialize_response(
                            error_reply(429, "server saturated, back off"),
                            /*keep_alive=*/false));
        return;
      }

      Endpoint endpoint = Endpoint::kOther;
      const double start_us = obs::now_us();
      const HttpResponse response = service_.dispatch(request, &endpoint);
      metrics.requests->add(1);
      metrics.latency_ms[static_cast<std::size_t>(endpoint)]->observe(
          (obs::now_us() - start_us) / 1000.0);

      if (!write_frame(fd, serialize_response(response, request.keep_alive)))
        return;
      if (!request.keep_alive) return;
    }

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0 && !buffer.empty()) {
      // The client half-closed mid-request: no more bytes can complete
      // it, so answer with a typed 400 rather than a silent close.
      metrics.bad_requests->add(1);
      write_frame(fd, serialize_response(
                          error_reply(400, "incomplete request before EOF"),
                          /*keep_alive=*/false));
      return;
    }
    if (n <= 0) return;  // clean EOF, timeout, or shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

bool QueryServer::write_frame(int fd, const std::string& frame) {
  auto& metrics = ServerMetrics::instance();
  std::size_t limit = frame.size();
  bool truncate = false;
  if (CS_FAILPOINT("server.reply.partial")) {
    // Fault drill: die mid-reply. The client must see a short frame and a
    // close, never a torn frame followed by a healthy next response.
    limit = frame.size() / 2;
    truncate = true;
    metrics.reply_partial->add(1);
  }
  std::size_t sent = 0;
  while (sent < limit) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, limit - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      metrics.reply_partial->add(1);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return !truncate;
}

void QueryServer::reply_and_close(int fd, const HttpResponse& response) {
  write_frame(fd, serialize_response(response, /*keep_alive=*/false));
  close_quiet(fd);
}

}  // namespace cellscope::server
