#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hpcqc {

/// Machine-readable failure classification. Retry policies and circuit
/// breakers branch on the code (via Error::transient()) instead of
/// string-matching what(): a QDMI timeout is worth retrying, a malformed
/// circuit never is.
enum class ErrorCode {
  kGeneric,             ///< unclassified (treated as permanent)
  kPrecondition,        ///< caller broke an API contract
  kNotFound,            ///< the requested entity does not exist
  kInvalidState,        ///< operation not valid in the current state
  kParse,               ///< input text failed to parse
  kTransient,           ///< unclassified but known-retryable
  kTimeout,             ///< an operation exceeded its deadline
  kDeviceUnavailable,   ///< QPU offline / in maintenance
  kNetwork,             ///< transfer or serialization fault in flight
  kCalibrationFailed,   ///< a calibration run did not converge
  kInternal,            ///< invariant violation inside the stack
};

const char* to_string(ErrorCode code);

/// True for codes describing conditions that can clear on their own
/// (outages, timeouts, in-flight corruption) — the codes a retry policy
/// is allowed to spend attempts on.
constexpr bool is_transient(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTransient:
    case ErrorCode::kTimeout:
    case ErrorCode::kDeviceUnavailable:
    case ErrorCode::kNetwork:
    case ErrorCode::kCalibrationFailed:
      return true;
    default:
      return false;
  }
}

/// Base exception for all hpcqc errors. Carries the failing source location
/// so that operational logs (which end users of the stack read, not
/// debuggers) can point at the violated contract, plus an ErrorCode so
/// resilience layers can classify the failure.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what,
                 std::source_location loc = std::source_location::current())
      : Error(what, ErrorCode::kGeneric, loc) {}

  Error(const std::string& what, ErrorCode code,
        std::source_location loc = std::source_location::current())
      : std::runtime_error(format(what, loc)), code_(code) {}

  ErrorCode code() const { return code_; }
  bool transient() const { return is_transient(code_); }

private:
  static std::string format(const std::string& what,
                            const std::source_location& loc) {
    return std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
           ": " + what;
  }

  ErrorCode code_;
};

/// Contract violation: a caller broke a precondition of a public API.
class PreconditionError : public Error {
public:
  explicit PreconditionError(
      const std::string& what,
      std::source_location loc = std::source_location::current())
      : Error(what, ErrorCode::kPrecondition, loc) {}
};

/// The requested entity (qubit, sensor, job, ...) does not exist.
class NotFoundError : public Error {
public:
  explicit NotFoundError(
      const std::string& what,
      std::source_location loc = std::source_location::current())
      : Error(what, ErrorCode::kNotFound, loc) {}
};

/// The operation is not valid in the current state (e.g. executing on a QPU
/// that is mid-calibration, or reading results of a job that has not run).
class StateError : public Error {
public:
  explicit StateError(
      const std::string& what,
      std::source_location loc = std::source_location::current())
      : Error(what, ErrorCode::kInvalidState, loc) {}
};

/// Input text (circuit source, configuration) failed to parse.
class ParseError : public Error {
public:
  explicit ParseError(
      const std::string& what,
      std::source_location loc = std::source_location::current())
      : Error(what, ErrorCode::kParse, loc) {}
};

/// A failure expected to clear on its own: device offline, request timeout,
/// transfer corruption. Retry policies spend attempts on these.
class TransientError : public Error {
public:
  explicit TransientError(
      const std::string& what, ErrorCode code = ErrorCode::kTransient,
      std::source_location loc = std::source_location::current())
      : Error(what, code, loc) {}
};

/// A failure that will not clear without intervention (bad input, exhausted
/// budget, internal invariant). Retrying is wasted QPU time.
class PermanentError : public Error {
public:
  explicit PermanentError(
      const std::string& what, ErrorCode code = ErrorCode::kGeneric,
      std::source_location loc = std::source_location::current())
      : Error(what, code, loc) {}
};

inline const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric: return "generic";
    case ErrorCode::kPrecondition: return "precondition";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kInvalidState: return "invalid-state";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kTransient: return "transient";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kDeviceUnavailable: return "device-unavailable";
    case ErrorCode::kNetwork: return "network";
    case ErrorCode::kCalibrationFailed: return "calibration-failed";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

/// Throws PreconditionError with `message` unless `condition` holds. The
/// message is a view, copied into a std::string only on the throwing path,
/// so a passing check allocates nothing. A caller whose message needs
/// formatting tests the condition itself and builds the text only when it
/// fails: an argument expression is evaluated even when the check passes.
inline void expects(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) throw PreconditionError(std::string(message), loc);
}

/// Throws StateError with `message` unless `condition` holds (see expects).
inline void ensure_state(bool condition, std::string_view message,
                         std::source_location loc = std::source_location::current()) {
  if (!condition) throw StateError(std::string(message), loc);
}

}  // namespace hpcqc
