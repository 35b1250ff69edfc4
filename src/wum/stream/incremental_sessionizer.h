// Incremental (streaming) session reconstruction: sessions are emitted
// the moment they close instead of after an offline batch pass.
//
// Each heuristic is a rule (see session/sessionizer.h): a shard-owned
// object (thresholds, graph) that advances one user's open state by one
// request. A shard keeps every user's state by value in its UserTable
// and applies its one rule to it (RuleSessionizeSink, chosen once per
// shard). The batch Sessionizer folds the same rule over one user's
// stream, so per user the two agree by construction.

#ifndef WUM_STREAM_INCREMENTAL_SESSIONIZER_H_
#define WUM_STREAM_INCREMENTAL_SESSIONIZER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "wum/ckpt/codec.h"
#include "wum/clf/user_partitioner.h"
#include "wum/obs/metrics.h"
#include "wum/session/session.h"
#include "wum/stream/session_sink.h"
#include "wum/stream/threaded_driver.h"
#include "wum/stream/user_table.h"

namespace wum {

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

/// The rule behind EngineOptions::use_custom: a user's state is the
/// caller's own sessionizer, made by `factory` on the user's first
/// request (or on restore).
class CustomRule {
 public:
  using State = std::unique_ptr<IncrementalUserSessionizer>;

  explicit CustomRule(UserSessionizerFactory factory)
      : factory_(std::move(factory)) {}

  template <typename Emit>
  Status OnRequest(State* sessionizer, const PageRequest& request,
                   const Emit& emit) const {
    if (*sessionizer == nullptr) *sessionizer = factory_();
    return (*sessionizer)
        ->OnRequest(request, IncrementalUserSessionizer::EmitFn(
                                 std::cref(emit)));
  }

  template <typename Emit>
  Status Flush(State* sessionizer, const Emit& emit) const {
    return (*sessionizer)
        ->Flush(IncrementalUserSessionizer::EmitFn(std::cref(emit)));
  }

  Status Serialize(const State& sessionizer, ckpt::Encoder* encoder) const {
    return sessionizer->SerializeState(encoder);
  }
  Status Restore(ckpt::Decoder* decoder, State* sessionizer) const {
    *sessionizer = factory_();
    return (*sessionizer)->RestoreState(decoder);
  }

 private:
  UserSessionizerFactory factory_;
};

/// A shard's record consumer: range-checks each record's page
/// (kNotAPage records are counted and skipped), advances its user's
/// state in the shard's user table, and forwards closed sessions —
/// attributed to their user key — to a SessionSink. The rule lives in
/// RuleSessionizeSink; this base holds what every rule shares.
class SessionizeSink : public RecordSink {
 public:
  /// Checkpoint hook: appends this sink's state as codec frames — one
  /// counters frame, then one frame per user (key, ordering watermark,
  /// and the rule's state for that user). User frames are written in
  /// first-seen order, deterministic for a given input; restore rebuilds
  /// the user table in frame order. Must only run while no record is in
  /// flight (the engine's checkpoint barrier guarantees this).
  Status SerializeState(std::vector<std::string>* frames) const;

  /// Inverse of SerializeState on a fresh sink: consumes exactly the
  /// frames its counterpart wrote (ParseError on any mismatch, a
  /// duplicate user key included). Must run before the shard worker
  /// starts.
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
  /// Page records absorbed into per-user state (the rule accepted the
  /// request). Every absorbed record eventually reappears in an emitted
  /// session or is still in open state — the conservation the engine's
  /// dead-letter accounting builds on.
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
  /// Users in the user table.
  std::uint64_t users() const { return users_.load(std::memory_order_relaxed); }
  /// Heap bytes of the user table itself (UserTable::bytes).
  std::uint64_t user_table_bytes() const {
    return user_table_bytes_.load(std::memory_order_relaxed);
  }

 protected:
  /// `session_sink` must outlive this object. `metrics` handles are
  /// copied; their registry must outlive this sink.
  SessionizeSink(SessionSink* session_sink, std::size_t num_pages,
                 SessionizeMetrics metrics);

  /// Advances the watermark; false (and counted) for a non-page record.
  bool AdmitPage(const ShardRecord& record) {
    if (record.timestamp > 0) {
      const auto ts = static_cast<std::uint64_t>(record.timestamp);
      if (ts > watermark_seconds_.load(std::memory_order_relaxed)) {
        watermark_seconds_.store(ts, std::memory_order_relaxed);
      }
    }
    if (record.page != kNotAPage) return true;
    skipped_non_page_urls_.fetch_add(1, std::memory_order_relaxed);
    metrics_.skipped_non_page_urls.Increment();
    return false;
  }
  std::size_t num_pages() const { return num_pages_; }
  Status PageOutsideTopology(std::uint64_t page) const;
  Status OutOfOrder(std::string_view user_key) const;
  /// Hands one closed session of `user_key` to the session sink.
  Status Deliver(std::string_view user_key, Session session);
  /// Deliver for a session held as a span valid for the call.
  Status Deliver(std::string_view user_key,
                 std::span<const PageRequest> requests);
  void NoteAbsorbed() {
    records_absorbed_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteTable(std::size_t users, std::size_t bytes) {
    users_.store(users, std::memory_order_relaxed);
    user_table_bytes_.store(bytes, std::memory_order_relaxed);
  }
  /// Finish's rule for one user's failed flush: an IsShardFatal status
  /// stops the flush loop; any other costs only that user.
  static bool StopsFlushing(const Status& status);

 private:
  virtual Status SerializeUsers(std::vector<std::string>* frames) const = 0;
  virtual Status RestoreUsers(std::span<const std::string> frames) = 0;

  SessionSink* session_sink_;
  std::size_t num_pages_;
  SessionizeMetrics metrics_;
  std::atomic<std::uint64_t> sessions_emitted_{0};
  std::atomic<std::uint64_t> skipped_non_page_urls_{0};
  std::atomic<std::uint64_t> records_absorbed_{0};
  // One writer at a time (whichever thread drains the shard's batch,
  // serialized by its driver); read cross-thread by scrape probes, so
  // plain load/store is exact.
  std::atomic<std::uint64_t> watermark_seconds_{0};
  std::atomic<std::uint64_t> users_{0};
  std::atomic<std::uint64_t> user_table_bytes_{0};
};

/// SessionizeSink over one rule: each user's Rule::State lives by value
/// in the shard's UserTable, keyed by the hash the producer carried in
/// the record (ShardRecord::hash).
template <typename Rule>
class RuleSessionizeSink final : public SessionizeSink {
 public:
  RuleSessionizeSink(Rule rule, SessionSink* session_sink,
                     std::size_t num_pages, SessionizeMetrics metrics = {})
      : SessionizeSink(session_sink, num_pages, std::move(metrics)),
        rule_(std::move(rule)) {
    NoteTable(table_.size(), table_.bytes());
  }

  Status Accept(std::string_view user_key, const ShardRecord& record) override {
    if (!AdmitPage(record)) return Status::OK();
    if (record.page >= num_pages()) return PageOutsideTopology(record.page);
    const std::size_t slot = table_.FindSlot(user_key, record.hash);
    std::uint32_t index = table_.IndexAt(slot);
    if (index == Table::kNil) {
      WUM_ASSIGN_OR_RETURN(index, table_.Insert(slot, user_key, record.hash));
      NoteTable(table_.size(), table_.bytes());
    }
    typename Table::Entry& user = table_.entry(index);
    if (user.has_seen_request && record.timestamp < user.last_timestamp) {
      return OutOfOrder(user_key);
    }
    user.last_timestamp = record.timestamp;
    user.has_seen_request = true;
    WUM_RETURN_NOT_OK(rule_.OnRequest(
        &user.state,
        PageRequest{static_cast<PageId>(record.page), record.timestamp},
        EmitFor(index)));
    NoteAbsorbed();
    return Status::OK();
  }

  /// Flushes every user in first-seen order and returns the first
  /// failure; only an IsShardFatal one stops the loop early.
  Status Finish() override {
    Status first_error;
    for (std::uint32_t index = 0; index < table_.size(); ++index) {
      Status status = rule_.Flush(&table_.entry(index).state, EmitFor(index));
      if (status.ok()) continue;
      if (StopsFlushing(status)) return status;
      if (first_error.ok()) first_error = std::move(status);
    }
    return first_error;
  }

 private:
  using Table = UserTable<typename Rule::State>;

  /// The rule's emit for one user: a Session or a span of requests.
  auto EmitFor(std::uint32_t index) {
    return [this, index](auto session) {
      return Deliver(table_.KeyOf(index), std::move(session));
    };
  }

  Status SerializeUsers(std::vector<std::string>* frames) const override {
    for (std::uint32_t index = 0; index < table_.size(); ++index) {
      const typename Table::Entry& user = table_.entry(index);
      ckpt::Encoder encoder;
      encoder.PutString(table_.KeyOf(index));
      encoder.PutVarint(user.last_timestamp);
      encoder.PutU8(user.has_seen_request ? 1 : 0);
      WUM_RETURN_NOT_OK(rule_.Serialize(user.state, &encoder));
      frames->push_back(encoder.Release());
    }
    return Status::OK();
  }

  Status RestoreUsers(std::span<const std::string> frames) override {
    table_.Clear();
    for (const std::string& frame : frames) {
      ckpt::Decoder decoder(frame);
      WUM_ASSIGN_OR_RETURN(std::string key, decoder.GetString());
      if (key.empty()) return Status::ParseError("empty user key in state");
      const std::uint64_t hash = UserKeyHash(key);
      const std::size_t slot = table_.FindSlot(key, hash);
      if (table_.IndexAt(slot) != Table::kNil) {
        return Status::ParseError("duplicate user key '" + key +
                                  "' in state");
      }
      WUM_ASSIGN_OR_RETURN(const std::uint32_t index,
                           table_.Insert(slot, key, hash));
      typename Table::Entry& user = table_.entry(index);
      WUM_ASSIGN_OR_RETURN(user.last_timestamp, decoder.GetVarint());
      WUM_ASSIGN_OR_RETURN(std::uint8_t seen, decoder.GetU8());
      if (seen > 1) return Status::ParseError("invalid has_seen_request flag");
      user.has_seen_request = seen == 1;
      WUM_RETURN_NOT_OK(rule_.Restore(&decoder, &user.state));
      WUM_RETURN_NOT_OK(decoder.ExpectEnd());
    }
    NoteTable(table_.size(), table_.bytes());
    return Status::OK();
  }

  Rule rule_;
  Table table_;
};

/// Builds one shard's sink; the engine calls it once per shard.
using SessionizeSinkFactory = std::function<std::unique_ptr<SessionizeSink>(
    SessionSink* session_sink, std::size_t num_pages,
    SessionizeMetrics metrics)>;

/// A factory whose sinks each run a copy of `rule`.
template <typename Rule>
SessionizeSinkFactory SessionizeSinkFactoryFor(Rule rule) {
  return [rule = std::move(rule)](SessionSink* session_sink,
                                  std::size_t num_pages,
                                  SessionizeMetrics metrics)
             -> std::unique_ptr<SessionizeSink> {
    return std::make_unique<RuleSessionizeSink<Rule>>(
        rule, session_sink, num_pages, std::move(metrics));
  };
}

}  // namespace wum

#endif  // WUM_STREAM_INCREMENTAL_SESSIONIZER_H_
