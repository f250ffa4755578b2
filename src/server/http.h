// Minimal HTTP/1.1 message layer for the query daemon (DESIGN.md §11).
//
// The one wire parser in the repo: the query daemon needs POST bodies,
// keep-alive, pipelining, and bounded buffering, so the wire format
// lives here as pure functions over byte buffers: parse_http_request
// consumes one request from a growing receive buffer (telling the caller
// whether it needs more bytes), serialize_response frames one response.
// No sockets anywhere in this file; the unit tests drive the parser with
// plain strings and the server loop (server/server.h) owns the I/O.
//
// Supported subset: GET and POST requests, Content-Length bodies (no
// chunked encoding), HTTP/1.0 and 1.1, keep-alive per the 1.1 default
// (Connection: close opts out; 1.0 must opt in with keep-alive). Limits
// are explicit: an over-long head is 431, an over-long body 413, and any
// structural damage 400 — malformed input is a typed rejection, never a
// silent close (a request cut short by the client's half-close included).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/introspect.h"

namespace cellscope::server {

/// Responses reuse the endpoint registry's shape so query-service
/// handlers and obs handlers compose (the daemon falls back to the
/// registry for /metrics, /healthz, /stream).
using obs::HttpResponse;

/// One parsed request. Header names are lowercased; values are trimmed.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as sent)
  std::string path;    ///< request target up to '?', e.g. "/towers/7/class"
  std::string query;   ///< raw query string after '?' ("" when absent)
  std::map<std::string, std::string, std::less<>> headers;
  std::string body;
  /// Whether the connection should stay open after this exchange:
  /// HTTP/1.1 defaults to true, "Connection: close" (any case) forces
  /// false, HTTP/1.0 defaults to false unless "Connection: keep-alive".
  bool keep_alive = true;
};

/// Parser buffer bounds. Oversized input is rejected with a status, not
/// buffered without limit.
struct HttpLimits {
  std::size_t max_head_bytes = 8192;
  std::size_t max_body_bytes = 1 << 20;
};

enum class ParseStatus {
  kNeedMore,  ///< buffer holds an incomplete request — read more bytes
  kOk,        ///< one request parsed; `consumed` bytes are spent
  kBad,       ///< malformed or over-limit — respond `error_status`, close
};

struct ParseResult {
  ParseStatus status = ParseStatus::kNeedMore;
  /// Bytes of the buffer consumed by this request (head + body) when
  /// status == kOk; the caller keeps the remainder for pipelining.
  std::size_t consumed = 0;
  /// HTTP status to answer with when status == kBad (400/413/431).
  int error_status = 400;
  std::string error;  ///< human-readable rejection reason
};

/// Parses one request from the front of `buffer` into `out` (cleared
/// first). Never throws; structural damage reports kBad with a status.
ParseResult parse_http_request(std::string_view buffer, HttpRequest& out,
                               const HttpLimits& limits = {});

/// The standard reason phrase for the status codes this server emits.
std::string_view http_status_text(int status);

/// Frames `response` as an HTTP/1.1 message. `keep_alive` picks the
/// Connection header; the body always carries a Content-Length.
std::string serialize_response(const HttpResponse& response, bool keep_alive);

/// Value of `key` in the request's query string ("a=1&b=2" grammar, no
/// percent-decoding — endpoint parameters here are numeric). nullopt when
/// absent; an empty value ("a=") is a present empty string.
std::optional<std::string> query_param(const HttpRequest& request,
                                       std::string_view key);

}  // namespace cellscope::server
