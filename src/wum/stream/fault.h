// Fault-tolerance primitives for the streaming layer: the one test that
// splits infrastructure failures from data errors (IsShardFatal, which
// states the engine's failure rule), and a deterministic fault-injection
// harness (schedules, a fault-injecting sessionizer and a flaky sink) for
// driving every failure path in tests without touching the wall clock.
//
// Determinism is the design constraint throughout: schedules are pure
// functions of a seed or an index list, so every failure scenario
// replays identically. See docs/robustness.md for the cookbook.

#ifndef WUM_STREAM_FAULT_H_
#define WUM_STREAM_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "wum/common/random.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/stream/session_sink.h"

namespace wum {

/// True for an infrastructure failure (Internal / IoError /
/// FailedPrecondition), false for a data error (ParseError,
/// InvalidArgument, OutOfRange, ...).
///
/// The engine's one failure rule, for a status from a shard's
/// sessionizer, from the caller's SessionSink, or from a shard's
/// end-of-stream flush:
///   - IsShardFatal(status): the engine stops under both ErrorPolicy
///     values. The status becomes its sticky error, and the next
///     OfferBatch, Checkpoint and Finish return it.
///   - any other status stops the engine the same way under kFailFast.
///     Under kDegrade it becomes a dead letter instead: kRecord for a
///     rejected record, kEmit for a refused session, and the
///     open-state letter for a failed flush (Finish returns OK).
bool IsShardFatal(const Status& status);

/// Deterministic fire/pass decision sequence, advanced once per event.
/// A schedule is a pure function of its construction parameters: the
/// same schedule replayed over the same event stream fires at exactly
/// the same positions, which is what makes the fault tests reproducible.
/// Stateful (call Next() once per event, in order) and single-threaded
/// unless externally serialized.
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

/// Fault-injection decorator around one user's sessionizer: every
/// request for `poison_page` fails per `mode` instead of reaching the
/// wrapped state machine; every other call is forwarded, checkpoint
/// hooks included. Tests aim a fault at one user by giving that user
/// the poison page — the harness for the failure-rule tests. Install it
/// with EngineOptions::use_custom(Wrap(...)) around a HeuristicRegistry
/// factory.
class FaultInjectingSessionizer : public IncrementalUserSessionizer {
 public:
  enum class Mode {
    kReject,      // InvalidArgument: quarantined under kDegrade
    kShardFatal,  // Internal: stops the engine under either policy
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
/// call count) instead of delivering — the sink half of the harness.
/// Its default failure (IoError) stops the engine; pass a data error to
/// get kEmit dead letters under kDegrade. Thread-safe so direct tests
/// need no external locking.
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
