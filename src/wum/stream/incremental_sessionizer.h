// Incremental (streaming) session reconstruction: sessions are emitted
// the moment they close instead of after an offline batch pass. Output
// is identical to the batch sessionizers on the same input (a tested
// equivalence property).

#ifndef WUM_STREAM_INCREMENTAL_SESSIONIZER_H_
#define WUM_STREAM_INCREMENTAL_SESSIONIZER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "wum/obs/metrics.h"
#include "wum/session/smart_sra.h"
#include "wum/stream/session_sink.h"
#include "wum/stream/string_interner.h"
#include "wum/stream/threaded_driver.h"

namespace wum {

namespace ckpt {
class Encoder;
class Decoder;
}  // namespace ckpt

/// Optional observability handles for one SessionizeSink (one engine
/// shard). Default-constructed handles are disabled no-ops.
struct SessionizeMetrics {
  /// Mirrors skipped_non_page_urls() into a registry counter.
  obs::Counter skipped_non_page_urls;
};

/// Per-user streaming sessionizer state machine. Implementations receive
/// one user's requests in timestamp order and emit sessions through the
/// callback as soon as they can no longer grow.
class IncrementalUserSessionizer {
 public:
  using EmitFn = std::function<Status(Session)>;

  virtual ~IncrementalUserSessionizer() = default;

  /// Feeds the next request. `request.timestamp` must be >= the previous
  /// one for this user.
  virtual Status OnRequest(const PageRequest& request, const EmitFn& emit) = 0;

  /// End of stream: emits whatever is still open.
  virtual Status Flush(const EmitFn& emit) = 0;

  /// Checkpoint hook: appends this state machine's open-session state to
  /// `encoder` so it round-trips exactly through RestoreState. The
  /// default refuses with Unimplemented — an engine running a custom
  /// sessionizer without these overrides cannot be checkpointed (the
  /// failure is precise, not silent state loss).
  virtual Status SerializeState(ckpt::Encoder* encoder) const;

  /// Inverse of SerializeState, called on a freshly constructed instance
  /// before it sees any request. Corrupt input yields ParseError, never
  /// UB.
  virtual Status RestoreState(ckpt::Decoder* decoder);
};

/// Creates per-user state machines; one per client IP.
using UserSessionizerFactory =
    std::function<std::unique_ptr<IncrementalUserSessionizer>()>;

/// Streaming Smart-SRA. Phase 1 runs online (the candidate closes once
/// the page-stay or session-duration bound is exceeded); phase 2 runs on
/// each closed candidate, so emission latency is one candidate, exactly
/// the information horizon the batch algorithm needs.
class IncrementalSmartSra : public IncrementalUserSessionizer {
 public:
  /// `graph` must outlive this object.
  IncrementalSmartSra(const WebGraph* graph, SmartSra::Options options);

  Status OnRequest(const PageRequest& request, const EmitFn& emit) override;
  Status Flush(const EmitFn& emit) override;
  Status SerializeState(ckpt::Encoder* encoder) const override;
  Status RestoreState(ckpt::Decoder* decoder) override;

 private:
  Status CloseCandidate(const EmitFn& emit);

  SmartSra algorithm_;
  Session candidate_;
};

/// A shard's record consumer: interns each record's user key (resolved
/// by the producer, see ShardBatch::Append), range-checks its page
/// (kNotAPage records are counted and skipped), drives one per-user
/// sessionizer per key, and forwards closed sessions — attributed to
/// their user key — to a SessionSink.
class SessionizeSink : public RecordSink {
 public:
  /// `session_sink` must outlive this object. `metrics` handles are
  /// copied; their registry must outlive this sink.
  SessionizeSink(UserSessionizerFactory factory, SessionSink* session_sink,
                 std::size_t num_pages, SessionizeMetrics metrics = {});

  Status Accept(std::string_view user_key, const ShardRecord& record) override;
  Status Finish() override;

  /// Checkpoint hook: appends this sink's state as codec frames — one
  /// counters frame, then one frame per user (key, ordering watermark,
  /// and the user's sessionizer state via SerializeState). User frames
  /// are written in interner-id order (first-seen order, deterministic
  /// for a given input), which doubles as the interner snapshot: restore
  /// re-interns the keys in frame order and reproduces identical ids, so
  /// a resumed shard keeps every id stable. Must only run while no
  /// record is in flight (the engine's checkpoint barrier guarantees
  /// this).
  Status SerializeState(std::vector<std::string>* frames) const;

  /// Inverse of SerializeState on a fresh sink: consumes exactly the
  /// frames its counterpart wrote (ParseError on any mismatch), creating
  /// each user's sessionizer through the factory, restoring its state,
  /// and rebuilding the interner table in id order. Must run before the
  /// shard worker starts.
  Status RestoreState(std::span<const std::string> frames);

  /// Counter accessors are safe to call from any thread (the sharded
  /// engine snapshots them while workers run); everything else is
  /// single-threaded.
  std::uint64_t sessions_emitted() const {
    return sessions_emitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t skipped_non_page_urls() const {
    return skipped_non_page_urls_.load(std::memory_order_relaxed);
  }
  /// Page records absorbed into per-user sessionizer state (OnRequest
  /// returned OK). Every absorbed record eventually reappears in an
  /// emitted session or is still in open state — the conservation the
  /// engine's dead-letter accounting builds on.
  std::uint64_t records_absorbed() const {
    return records_absorbed_.load(std::memory_order_relaxed);
  }
  /// Event-time watermark: the largest CLF timestamp (UNIX seconds)
  /// this shard has seen, including records skipped as non-page URLs —
  /// every record advances event time. 0 before the first record.
  /// Rides the checkpoint so a resumed shard's lag gauges stay sane.
  std::uint64_t watermark_seconds() const {
    return watermark_seconds_.load(std::memory_order_relaxed);
  }
  std::size_t active_users() const { return users_.size(); }

 private:
  struct UserState {
    std::unique_ptr<IncrementalUserSessionizer> sessionizer;
    TimeSeconds last_timestamp = 0;
    bool has_seen_request = false;
  };

  UserSessionizerFactory factory_;
  SessionSink* session_sink_;
  std::size_t num_pages_;
  SessionizeMetrics metrics_;
  /// User identity keys → dense ids; open-session state lives in the
  /// id-indexed flat vector below instead of a string-keyed map, so the
  /// per-record lookup is one string_view hash with no allocation.
  StringInterner interner_;
  std::vector<UserState> users_;
  /// One emit closure for the whole sink: it reads current_user_id_ at
  /// call time, so no per-record std::function is materialized. Set
  /// before every OnRequest/Flush; emission is synchronous within them.
  IncrementalUserSessionizer::EmitFn emit_fn_;
  std::uint32_t current_user_id_ = 0;
  std::atomic<std::uint64_t> sessions_emitted_{0};
  std::atomic<std::uint64_t> skipped_non_page_urls_{0};
  std::atomic<std::uint64_t> records_absorbed_{0};
  // One writer at a time (whichever thread drains the shard's batch,
  // serialized by its driver); read cross-thread by scrape probes, so
  // plain load/store max is exact.
  std::atomic<std::uint64_t> watermark_seconds_{0};
};

}  // namespace wum

#endif  // WUM_STREAM_INCREMENTAL_SESSIONIZER_H_
