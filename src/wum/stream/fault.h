// Fault-tolerance primitives for the streaming layer: the retrying sink
// decorator that rides between the engine and a flaky SessionSink, and a
// deterministic fault-injection harness (schedules, a fault-injecting
// sessionizer and a flaky sink) for driving every failure path in tests
// without touching the wall clock.
//
// Determinism is the design constraint throughout: schedules are pure
// functions of a seed or an index list, backoff delays are computed from
// the attempt number alone, and the clock only enters through an
// injectable sleep hook — so every failure scenario replays identically.
// See docs/robustness.md for the cookbook.

#ifndef WUM_STREAM_FAULT_H_
#define WUM_STREAM_FAULT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "wum/common/random.h"
#include "wum/obs/metrics.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/stream/session_sink.h"

namespace wum {

/// Classification used by StreamEngine under ErrorPolicy::kDegrade: an
/// infrastructure failure (Internal / IoError / FailedPrecondition) from
/// the record path kills its shard, while data errors (ParseError,
/// InvalidArgument, OutOfRange, ...) quarantine only the offending
/// record. Emission failures never reach this test — they are retried
/// and dead-lettered at the emit hub.
bool IsShardFatal(const Status& status);

/// Deterministic fire/pass decision sequence, advanced once per event.
/// A schedule is a pure function of its construction parameters: the
/// same schedule replayed over the same event stream fires at exactly
/// the same positions, which is what makes the fault tests and the
/// kill-one-shard scenarios reproducible. Stateful (call Next() once per
/// event, in order) and single-threaded unless externally serialized.
class FaultSchedule {
 public:
  /// Never fires.
  static FaultSchedule Never();
  /// Fires on every event.
  static FaultSchedule Always();
  /// Fires on the given 0-based event indices.
  static FaultSchedule AtIndices(std::vector<std::uint64_t> indices);
  /// Fires on the first `n` events, then never again.
  static FaultSchedule FirstN(std::uint64_t n);
  /// Fires on every n-th event (indices n-1, 2n-1, ...). n == 0 never
  /// fires.
  static FaultSchedule EveryNth(std::uint64_t n);
  /// Fires on each event independently with probability `p`, driven by a
  /// wum::Rng — deterministic for a given seed.
  static FaultSchedule Seeded(std::uint64_t seed, double probability);

  FaultSchedule(FaultSchedule&&) noexcept = default;
  FaultSchedule& operator=(FaultSchedule&&) noexcept = default;

  /// Should the current event fault? Advances to the next event.
  bool Next();

  /// Events examined so far.
  std::uint64_t seen() const { return seen_; }
  /// Events that faulted so far.
  std::uint64_t fired() const { return fired_; }

 private:
  enum class Kind { kNever, kAlways, kIndices, kFirstN, kEveryNth, kSeeded };

  explicit FaultSchedule(Kind kind) : kind_(kind) {}

  Kind kind_;
  std::vector<std::uint64_t> indices_;  // sorted, kIndices
  std::uint64_t n_ = 0;                 // kFirstN / kEveryNth
  double probability_ = 0.0;            // kSeeded
  std::optional<Rng> rng_;              // kSeeded
  std::uint64_t seen_ = 0;
  std::uint64_t fired_ = 0;
};

/// Retry policy for RetryingSink (and EngineOptions::set_retry).
/// Backoff before re-attempt k (1-based) is
///   min(initial_backoff * multiplier^(k-1), max_backoff)
/// — computed from the attempt number alone, never from the clock. The
/// wait itself goes through `sleep`, injectable so tests replay retry
/// storms instantly and deterministically.
struct RetryOptions {
  /// Total attempts per session, including the first (>= 1).
  int max_attempts = 3;
  std::chrono::microseconds initial_backoff{1000};
  double multiplier = 2.0;
  std::chrono::microseconds max_backoff{250000};
  /// Wait hook between attempts; null means std::this_thread::sleep_for.
  std::function<void(std::chrono::microseconds)> sleep;
};

/// The deterministic backoff ladder: delay before re-attempt
/// `retry_index` (1-based). Exposed so tests assert exact delays.
std::chrono::microseconds RetryBackoff(const RetryOptions& options,
                                       int retry_index);

/// SessionSink decorator with bounded retries and deterministic
/// exponential backoff, for sinks with transient failures (a network
/// store, a full pipe). Gives up and returns the last error once
/// max_attempts is exhausted; the caller (the engine's emit hub, in
/// kDegrade mode) decides whether that is fatal or a dead letter.
///
/// Calls must be externally serialized (the engine's emit path is); the
/// counters are atomics so stats snapshots may race with an Accept.
class RetryingSink : public SessionSink {
 public:
  /// `sink` must outlive this object. `retries_mirror`, when enabled,
  /// mirrors retries() into a registry counter. `shard` is the engine
  /// shard this sink serves, for its log lines.
  RetryingSink(SessionSink* sink, RetryOptions options,
               obs::Counter retries_mirror = {}, std::uint64_t shard = 0);

  Status Accept(const std::string& user_key, Session session) override;

  /// Re-attempts performed (attempts beyond the first, across all calls).
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Accepts that still failed after the final attempt.
  std::uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  SessionSink* sink_;
  RetryOptions options_;
  obs::Counter retries_mirror_;
  std::uint64_t shard_ = 0;
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

/// Fault-injection decorator around one user's sessionizer: every
/// request for `poison_page` fails per `mode` instead of reaching the
/// wrapped state machine; every other call is forwarded, checkpoint
/// hooks included. Tests aim a fault at one shard by giving one user
/// the poison page — the harness for degraded-mode and kill-one-shard
/// tests. Install it with EngineOptions::use_custom(Wrap(...)) around a
/// HeuristicRegistry factory.
class FaultInjectingSessionizer : public IncrementalUserSessionizer {
 public:
  enum class Mode {
    kReject,      // InvalidArgument: quarantined under kDegrade
    kShardFatal,  // Internal: kills the shard even under kDegrade
  };

  FaultInjectingSessionizer(std::unique_ptr<IncrementalUserSessionizer> inner,
                            PageId poison_page, Mode mode)
      : inner_(std::move(inner)), poison_page_(poison_page), mode_(mode) {}

  /// A factory wrapping every sessionizer `inner` creates.
  static UserSessionizerFactory Wrap(UserSessionizerFactory inner,
                                     PageId poison_page, Mode mode);

  Status OnRequest(const PageRequest& request, const EmitFn& emit) override;
  Status Flush(const EmitFn& emit) override { return inner_->Flush(emit); }
  Status SerializeState(ckpt::Encoder* encoder) const override {
    return inner_->SerializeState(encoder);
  }
  Status RestoreState(ckpt::Decoder* decoder) override {
    return inner_->RestoreState(decoder);
  }

 private:
  std::unique_ptr<IncrementalUserSessionizer> inner_;
  PageId poison_page_;
  Mode mode_;
};

/// SessionSink wrapper that fails per its schedule (indexed by Accept
/// call count) instead of delivering — the transient-failure half of the
/// harness, made to be wrapped by RetryingSink. Thread-safe so direct
/// tests need no external locking.
class FlakySink : public SessionSink {
 public:
  /// `wrapped` must outlive this object. `failure` is returned verbatim
  /// on scheduled calls (must not be OK).
  FlakySink(SessionSink* wrapped, FaultSchedule schedule,
            Status failure = Status::IoError("injected sink fault"));

  Status Accept(const std::string& user_key, Session session) override;

  std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  SessionSink* wrapped_;
  std::mutex mutex_;  // guards schedule_
  FaultSchedule schedule_;
  Status failure_;
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace wum

#endif  // WUM_STREAM_FAULT_H_
