// Cooperative request deadlines.
//
// A Deadline is an optional absolute point on the steady clock. The request
// path carries one from the wire ("deadline_ms", relative to request
// arrival) down through the Engine into the pipeline workers, which call
// check() at stage boundaries — profiling, simulation, analysis are each
// finite, so checking between them bounds how long an expired request can
// keep its admission slot without peppering hot loops with clock reads.
//
// Expiry is reported by throwing DeadlineExceededError (a spmwcet::Error,
// so every existing catch site still contains it); the Engine maps it to
// the typed ErrorCode::DeadlineExceeded, which the wire layer serializes
// as a structured error response — the session lives on.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "support/diag.h"

namespace spmwcet::support {

/// A request ran past its deadline; the message names the pipeline stage that
/// noticed. Derived from Error so legacy catch sites keep working, but
/// distinguishable so the Engine can answer with the typed error code.
class DeadlineExceededError : public Error {
public:
  explicit DeadlineExceededError(const std::string& stage)
      : Error("deadline exceeded (" + stage + ")") {}
};

/// Optional absolute deadline on the steady clock. Default-constructed =
/// unbounded (every check is free-ish and never fires), so threading a
/// Deadline through a path costs nothing for requests that set none.
class Deadline {
public:
  Deadline() = default;

  /// The deadline `ms` milliseconds from now; ms == 0 means unbounded
  /// (the wire spelling "no deadline_ms field / 0" maps straight here).
  static Deadline after_ms(uint32_t ms) {
    Deadline d;
    if (ms > 0)
      d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  bool bounded() const { return at_.has_value(); }

  bool expired() const {
    return at_.has_value() && std::chrono::steady_clock::now() >= *at_;
  }

  /// Milliseconds until expiry, clamped to >= 0; INT64_MAX when unbounded.
  int64_t remaining_ms() const {
    if (!at_.has_value()) return INT64_MAX;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        *at_ - std::chrono::steady_clock::now());
    return left.count() > 0 ? left.count() : 0;
  }

  /// Throws DeadlineExceededError naming `stage` when expired.
  void check(const char* stage) const {
    if (expired()) throw DeadlineExceededError(stage);
  }

private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

} // namespace spmwcet::support
