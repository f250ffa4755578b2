// Error handling primitives for cellscope.
//
// All invariant violations and invalid arguments throw cellscope::Error
// (per the project rule: no undefined behaviour on bad input, exceptions
// for errors only).
#pragma once

#include <stdexcept>
#include <string>

namespace cellscope {

/// Base exception for all cellscope errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown on I/O failures (file open/read/write).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void fail_check(const char* expr, const char* file,
                                    int line, const std::string& msg) {
  throw Error(std::string("check failed: ") + expr + " at " + file + ":" +
              std::to_string(line) + (msg.empty() ? "" : (" — " + msg)));
}
}  // namespace detail

}  // namespace cellscope

/// Runtime invariant check; throws cellscope::Error when violated.
#define CS_CHECK(expr)                                                \
  do {                                                                \
    if (!(expr))                                                      \
      ::cellscope::detail::fail_check(#expr, __FILE__, __LINE__, ""); \
  } while (false)

/// Runtime invariant check with an explanatory message.
#define CS_CHECK_MSG(expr, msg)                                          \
  do {                                                                   \
    if (!(expr))                                                         \
      ::cellscope::detail::fail_check(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

/// Debug-only invariant checks for hot paths (the condensed distance-matrix
/// indexers, the per-entry checks of the NN-chain triangle repack). Active
/// in debug builds; compiled out under NDEBUG, where the expression is only
/// type-checked, never evaluated.
#ifndef NDEBUG
#define CS_DCHECK(expr) CS_CHECK(expr)
#define CS_DCHECK_MSG(expr, msg) CS_CHECK_MSG(expr, msg)
#else
#define CS_DCHECK(expr) \
  do {                  \
    (void)sizeof(expr); \
  } while (false)
#define CS_DCHECK_MSG(expr, msg) \
  do {                           \
    (void)sizeof(expr);          \
    (void)sizeof(msg);           \
  } while (false)
#endif
