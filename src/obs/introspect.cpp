#include "obs/introspect.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"

namespace cellscope::obs {

namespace {

constexpr int kPollIntervalMs = 100;  // stop() latency bound
constexpr std::size_t kMaxRequestBytes = 8192;

std::string status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

/// The /healthz body: quality-sentinel tallies plus every verdict.
HttpResponse healthz_response() {
  auto& board = QualityBoard::instance();
  const bool ok = board.ok();
  HttpResponse response;
  response.status = ok ? 200 : 503;
  response.content_type = "application/json";
  response.body = std::string("{\"ok\":") + (ok ? "true" : "false") +
                  ",\"passed\":" + std::to_string(board.passed()) +
                  ",\"warned\":" + std::to_string(board.warned()) +
                  ",\"failed\":" + std::to_string(board.failed()) +
                  ",\"verdicts\":" + board.verdicts_json() + "}";
  return response;
}

}  // namespace

IntrospectionServer::IntrospectionServer() {
  set_handler("/metrics", [] {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::instance().snapshot_prometheus();
    return response;
  });
  set_handler("/metrics.json", [] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = MetricsRegistry::instance().snapshot_json();
    return response;
  });
  set_handler("/healthz", [] { return healthz_response(); });
}

IntrospectionServer::~IntrospectionServer() { stop(); }

IntrospectionServer& IntrospectionServer::instance() {
  // Leaked like the other obs singletons: components deregistering
  // handlers from static destructors must find a live object.
  static IntrospectionServer* server = new IntrospectionServer;
  return *server;
}

bool IntrospectionServer::maybe_start_from_env() {
  auto& server = instance();
  if (server.running()) return true;
  const char* env = std::getenv("CELLSCOPE_INTROSPECT_PORT");
  if (env == nullptr || *env == '\0') return false;
  const auto parsed = parse_u64(env, 0, 65535);
  if (!parsed) {
    log_warn("introspect.bad_port", {{"value", env}});
    return false;
  }
  try {
    server.start(static_cast<std::uint16_t>(*parsed));
  } catch (const Error& e) {
    // A stats port that cannot be bound must not take the process down.
    log_warn("introspect.start_failed", {{"error", e.what()}});
    return false;
  }
  return true;
}

void IntrospectionServer::set_handler(const std::string& path,
                                      Handler handler, const void* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_[path] = Registration{std::move(handler), owner};
}

void IntrospectionServer::remove_handler(const std::string& path,
                                         const void* owner) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = handlers_.find(path);
    if (it == handlers_.end()) return;
    if (owner != nullptr && it->second.owner != owner) return;
    handlers_.erase(it);
  }
  // Drain any in-flight invocation: once we hold exec_mutex_, no handler
  // (including the one just erased) is still running, so the caller may
  // free whatever state its handler captured.
  std::lock_guard<std::mutex> exec_lock(exec_mutex_);
}

HttpResponse IntrospectionServer::handle(std::string_view path) const {
  // Strip any query string; endpoints are parameterless today.
  const auto query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);

  // exec_mutex_ is taken *before* the table lookup so remove_handler's
  // erase-then-drain sequence is airtight: once it returns, the erased
  // handler neither runs nor will run. mutex_ is only held for the
  // lookup itself; handlers run outside it and may take component locks.
  std::lock_guard<std::mutex> exec_lock(exec_mutex_);
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second.handler;
  }
  if (!handler) {
    HttpResponse response;
    response.status = 404;
    response.body = "no such endpoint: " + std::string(path) + '\n';
    return response;
  }
  try {
    return handler();
  } catch (const std::exception& e) {
    HttpResponse response;
    response.status = 500;
    response.body = std::string("handler error: ") + e.what() + '\n';
    return response;
  }
}

void IntrospectionServer::start(std::uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("introspect: socket() failed");
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("introspect: cannot listen on 127.0.0.1:" +
                  std::to_string(port) + " (" + std::strerror(err) + ")");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    ::close(fd);
    throw IoError("introspect: getsockname() failed");
  }

  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_relaxed);
  running_ = true;
  thread_ = std::thread([this] { serve_loop(); });
  log_info("introspect.listening", {{"port", port_}});
}

void IntrospectionServer::stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_.store(true, std::memory_order_relaxed);
    to_join = std::move(thread_);
    running_ = false;
  }
  if (to_join.joinable()) to_join.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_ = 0;
}

bool IntrospectionServer::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

std::uint16_t IntrospectionServer::port() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return port_;
}

void IntrospectionServer::serve_loop() {
  int fd;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fd = listen_fd_;
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready <= 0) continue;  // timeout (stop check) or transient error
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      // fd exhaustion, aborted handshakes — visible, not silent.
      MetricsRegistry::instance()
          .counter("cellscope.introspect.accept_errors")
          .add(1);
      continue;
    }
    serve_one(client);
    ::close(client);
  }
}

void IntrospectionServer::serve_one(int client_fd) const {
  // Read one request's head (we never need the body of a stats GET).
  std::string request;
  char buf[2048];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::read(client_fd, buf, sizeof(buf));
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  // Malformed input gets a typed 400, never a silent close — a curl
  // fat-fingering the port should see why it was refused.
  const auto line_end = request.find('\n');
  HttpResponse response;
  if (line_end == std::string::npos) {
    if (request.empty()) return;  // hangup before any bytes: nothing to say
    response.status = 400;
    response.body = "malformed request line\n";
    write_response(client_fd, response);
    return;
  }

  // "GET /path HTTP/1.1"
  std::string_view line(request.data(), line_end);
  while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
    line.remove_suffix(1);
  const auto first_space = line.find(' ');
  const auto second_space =
      first_space == std::string_view::npos
          ? std::string_view::npos
          : line.find(' ', first_space + 1);
  if (first_space == std::string_view::npos || first_space == 0) {
    response.status = 400;
    response.body = "malformed request line\n";
  } else if (line.substr(0, first_space) != "GET") {
    response.status = 405;
    response.body = "only GET is supported\n";
  } else {
    const auto path_end = second_space == std::string_view::npos
                              ? line.size()
                              : second_space;
    response =
        handle(line.substr(first_space + 1, path_end - first_space - 1));
  }
  write_response(client_fd, response);
}

void IntrospectionServer::write_response(int client_fd,
                                         const HttpResponse& response) {
  // Connection: close on every response: this server answers exactly one
  // request per connection, and says so.
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + ' ' +
                     status_text(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  // Best-effort writes: a client hanging up mid-response is its problem.
  (void)::write(client_fd, head.data(), head.size());
  (void)::write(client_fd, response.body.data(), response.body.size());
}

}  // namespace cellscope::obs
