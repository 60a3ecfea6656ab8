// Error handling primitives shared by all hetpar subsystems.
//
// hetpar reports unrecoverable misuse and internal invariant violations via
// exceptions derived from hetpar::Error so that callers (tests, tools) can
// distinguish library failures from std:: failures.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace hetpar {

/// Base class of all exceptions thrown by hetpar.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string message) : std::runtime_error(std::move(message)) {}
};

/// Thrown when input source code cannot be lexed/parsed/analyzed.
class ParseError : public Error {
 public:
  using Error::Error;
};

/// Thrown when a semantic check on otherwise well-formed input fails.
class SemaError : public Error {
 public:
  using Error::Error;
};

/// Thrown when an ILP model is malformed or a solve fails unexpectedly.
class SolverError : public Error {
 public:
  using Error::Error;
};

/// Thrown when an internal invariant is violated (a hetpar bug, not user error).
class InternalError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] inline void throwInternal(const char* cond, const char* file, int line,
                                       const std::string& what) {
  throw InternalError(std::string("internal invariant violated: ") + cond + " at " + file + ":" +
                      std::to_string(line) + (what.empty() ? "" : (": " + what)));
}
}  // namespace detail

/// Checks a hetpar-internal invariant; throws InternalError on failure.
/// Active in all build types: the costs are negligible next to ILP solving.
#define HETPAR_CHECK(cond)                                                  \
  do {                                                                      \
    if (!(cond)) ::hetpar::detail::throwInternal(#cond, __FILE__, __LINE__, \
                                                 std::string{});            \
  } while (false)

#define HETPAR_CHECK_MSG(cond, msg)                                         \
  do {                                                                      \
    if (!(cond)) ::hetpar::detail::throwInternal(#cond, __FILE__, __LINE__, \
                                                 (msg));                    \
  } while (false)

/// Validates a user-facing precondition; throws the given exception type.
/// A literal message costs nothing while `cond` holds; a message built
/// from strings is built before the test, so hot paths test first and
/// build the message only when they throw.
template <class Exc = Error>
inline void require(bool cond, const char* message) {
  if (!cond) throw Exc(message);
}

template <class Exc = Error>
inline void require(bool cond, const std::string& message) {
  if (!cond) throw Exc(message);
}

}  // namespace hetpar
