// Structured, machine-readable error classification for the serving layer.
//
// The serve protocol's original failure shape was a flattened
// `"error":"<what()>"` string; clients could not tell a retryable deadline
// expiry from a fatal protocol error, and diagnoses carried by typed
// exceptions (sim::DivergenceError's probe/node/step/growth) were lost at
// the first catch. classify_error() maps the exception hierarchy to an
// ErrorInfo — a stable error code, a retryable bit, and typed key/value
// detail — which serving layers append as an `error_info` JSON object next
// to the legacy `error` string (schema in docs/BENCH_FORMAT.md).
//
// Retryable codes: the same request may succeed if re-sent (deadline
// expiry, cancellation, divergence of an approximate backend, injected
// faults, transient resource exhaustion). Fatal codes: the request itself
// is wrong (unknown solver, malformed spec) and re-sending cannot help.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace aflow::core {

struct ErrorInfo {
  std::string code = "internal";  // stable machine-readable identifier
  bool retryable = false;
  std::string message;            // human-readable, mirrors the what() string
  /// Typed detail (e.g. DivergenceError's probe/node/step/growth). Kept as
  /// flat key/value lists so the streaming JsonWriter can emit them without
  /// a document model.
  std::vector<std::pair<std::string, double>> num_fields;
  std::vector<std::pair<std::string, std::string>> str_fields;
};

/// Maps a caught exception to its ErrorInfo. Recognises
/// util::CancelledError (deadline_exceeded / cancelled, retryable),
/// sim::DivergenceError (divergence, retryable, diagnosis fields),
/// sim::ConvergenceError (convergence, retryable), std::bad_alloc
/// (resource_exhausted, retryable), std::invalid_argument and
/// graph::DimacsError (invalid_argument, fatal), and injected faults
/// (fault_injected, retryable); everything else is `internal`, fatal.
ErrorInfo classify_error(const std::exception& e);

/// Serialises `info` as the value of an `error_info` key:
/// {"code":...,"retryable":...,"message":...,<typed fields>}.
void write_error_info(util::JsonWriter& j, const ErrorInfo& info);

/// Carries an ErrorInfo across the string-flattening catch boundaries of
/// the serving layer (BatchEngine outcomes, ShardedSolver region failures)
/// so the structured classification made at the original throw site
/// survives to the response writer.
class ServeRequestError : public std::runtime_error {
 public:
  explicit ServeRequestError(ErrorInfo info)
      : std::runtime_error(info.message), info_(std::move(info)) {}
  const ErrorInfo& info() const { return info_; }

 private:
  ErrorInfo info_;
};

} // namespace aflow::core
