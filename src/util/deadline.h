#ifndef PROBSYN_UTIL_DEADLINE_H_
#define PROBSYN_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>

#include "util/status.h"

namespace probsyn {

/// Cooperative cancellation flag: the caller keeps the token, hands a
/// pointer to a request, and may fire it from any thread; solvers poll it
/// at coarse granularity (per DP column / tree level / shard) and unwind
/// with StatusCode::kCancelled. One token may be shared by many requests —
/// firing it stops them all. Firing is one relaxed atomic store; polling
/// one relaxed load, so polls are cheap enough for inner solver loops.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation (idempotent, any thread).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  /// True once Cancel() has been called.
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token for reuse. Only safe once no solve is polling it.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A steady-clock wall deadline. Default-constructed (or Never()) it never
/// expires and Expired() is a single branch; with a deadline set Expired()
/// costs one steady_clock::now() call (~tens of nanoseconds), cheap
/// against the microsecond-scale work between solver polls.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// The unbounded deadline (same as default construction).
  static Deadline Never() { return Deadline(); }
  /// Expires `seconds` from now (steady clock); seconds <= 0 is already
  /// expired.
  static Deadline After(double seconds);
  /// Expires at `when` on the steady clock.
  static Deadline At(std::chrono::steady_clock::time_point when);

  /// True when no deadline is set.
  bool IsNever() const { return !armed_; }
  /// True once the deadline has passed (never true for Never()).
  bool Expired() const {
    return armed_ && std::chrono::steady_clock::now() >= when_;
  }
  /// Seconds until expiry (negative once past); +infinity for Never().
  double RemainingSeconds() const {
    if (!armed_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(when_ -
                                         std::chrono::steady_clock::now())
        .count();
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point when_{};
};

/// The stop signal a long-running solve polls cooperatively: a deadline
/// plus zero or more cancel tokens (a batch group polls every member's
/// token). Solvers receive a `const ExecContext*` (null = unbounded, the
/// historical behavior) through their option structs, call StopRequested()
/// once per coarse work unit, and on a hit unwind with StopStatus(...) —
/// which records the route and how far the solve got. A default
/// ExecContext never stops.
class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(Deadline deadline, const CancelToken* cancel)
      : deadline_(deadline), single_(cancel) {}
  /// Group form: polls every token in `cancels[0..num_cancels)` (the
  /// array must outlive the context; null entries are skipped).
  ExecContext(Deadline deadline, const CancelToken* const* cancels,
              std::size_t num_cancels)
      : deadline_(deadline), many_(cancels), num_many_(num_cancels) {}

  const Deadline& deadline() const { return deadline_; }

  /// True when neither a deadline nor a token is attached — callers may
  /// skip plumbing entirely.
  bool Unbounded() const {
    return deadline_.IsNever() && single_ == nullptr && num_many_ == 0;
  }

  /// True once any token fired or the deadline passed.
  bool StopRequested() const {
    if (single_ != nullptr && single_->Cancelled()) return true;
    for (std::size_t i = 0; i < num_many_; ++i) {
      if (many_[i] != nullptr && many_[i]->Cancelled()) return true;
    }
    return deadline_.Expired();
  }

  /// The status a stopped solve unwinds with: kCancelled when a token
  /// fired (checked first — an explicit cancel beats a concurrently
  /// expiring deadline), else kDeadlineExceeded. The message records the
  /// route and progress, e.g.
  /// "exact-dp stopped at budget layer 17/64: deadline exceeded".
  Status StopStatus(const char* route, const char* progress_unit,
                    std::size_t done, std::size_t total) const;

 private:
  bool CancelRequested() const {
    if (single_ != nullptr && single_->Cancelled()) return true;
    for (std::size_t i = 0; i < num_many_; ++i) {
      if (many_[i] != nullptr && many_[i]->Cancelled()) return true;
    }
    return false;
  }

  Deadline deadline_;
  const CancelToken* single_ = nullptr;
  const CancelToken* const* many_ = nullptr;
  std::size_t num_many_ = 0;
};

/// Null-safe poll of the solvers' `const ExecContext*` knobs.
inline bool StopRequested(const ExecContext* context) {
  return context != nullptr && context->StopRequested();
}

/// Amortized ExecContext polling for tight per-item loops (the ingest
/// tier's drain loop): counts calls and consults the context only on every
/// `interval`-th one, so the poll cost stays far below the per-item work
/// while cancellation latency stays bounded by `interval` items. The very
/// first call polls (matching the hand-rolled `(pushed & 15) == 0` cadence
/// this helper replaces), and a null context never stops, like
/// StopRequested above.
class PollGate {
 public:
  /// `interval` items between polls; must be a power of two (the cadence
  /// check is a single mask). Defaults to a 16-item cadence; 1 polls on
  /// every call.
  explicit PollGate(std::size_t interval = 16) : mask_(interval - 1) {}

  /// True when this call lands on the poll cadence AND the context asked
  /// to stop. Callers unwind with `context->StopStatus(...)` on true.
  bool ShouldStop(const ExecContext* context) {
    return (calls_++ & mask_) == 0 && StopRequested(context);
  }

 private:
  std::size_t mask_;
  std::size_t calls_ = 0;
};

}  // namespace probsyn

#endif  // PROBSYN_UTIL_DEADLINE_H_
