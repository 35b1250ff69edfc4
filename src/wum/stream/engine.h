// StreamEngine: the sharded, multi-worker streaming facade. It owns the
// whole reactive chain — producer-side cleaning filters, per-shard
// bounded queue and per-shard user table — built from ThreadedDriver +
// SessionizeSink (which remain the internal building blocks).
//
//   OfferBatch(refs) --filters--> hash(user identity)
//       --resolve--> ShardBatch {key, page id, timestamp, hash}
//       --> shard queue -> user table + rule -> shard run
//       --(one emit-hub lock per run)--> SessionSink
//
// Everything before the shard queue runs on the producer thread over
// the zero-copy LogRecordRef views: the add_filter filters drop records
// before any copy, and each kept record is resolved into the fields a
// shard reads (see ShardBatch). The user hash is computed once per
// record: it picks the shard and indexes that shard's user table.
// Under OfferPolicy::kBlock a shard's batch of at most
// ThreadedDriver::kInlineDrainMaxRecords records skips the queue when
// the shard is idle: the producer drains it itself, which costs less
// than waking the worker for a few records. Larger batches, and every
// hand-off under kShed, are queued.
//
// Records are hash-partitioned by user identity (client IP, or IP+UA per
// UserIdentity), so one user's records always land on the same shard and
// per-user timestamp ordering is preserved while distinct users run in
// parallel — the per-user independence that "Link Based Session
// Reconstruction" (Bayir & Toroslu) identifies as the natural
// parallelism axis. Each shard collects the sessions it closes into a
// flat shard-local run and hands the run to the caller's single
// SessionSink under one emit-hub lock: at the end of every drained
// batch, whenever the run would pass a fixed bound of 1024 requests,
// and after the Finish flush. A session therefore reaches the sink when
// its batch finishes draining, not when its closing record is
// processed.
//
// Failure handling follows one rule (stated beside IsShardFatal in
// fault.h): an infrastructure error — from a shard's sessionizer, the
// caller's sink or an end-of-stream flush — stops the whole engine under
// either ErrorPolicy. A data error stops it too under kFailFast (the
// default); under kDegrade the rejected record, refused session or
// failed flush becomes a dead letter instead and every shard keeps
// sessionizing. Backpressure can shed instead of blocking via
// OfferPolicy::kShed.
//
// See docs/streaming.md for the API guide and docs/robustness.md for
// the fault-tolerance layer.

#ifndef WUM_STREAM_ENGINE_H_
#define WUM_STREAM_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/common/result.h"
#include "wum/common/time.h"
#include "wum/mine/options.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/stream/session_sink.h"
#include "wum/stream/threaded_driver.h"

namespace wum {

class WebGraph;

namespace mine {
class MiningSink;
}  // namespace mine

/// What a data error does to the engine. An infrastructure error (see
/// IsShardFatal) stops the engine under either policy.
enum class ErrorPolicy {
  /// First error wins and is sticky: any sessionizer, sink or flush
  /// failure stops the whole engine (the default).
  kFailFast,
  /// Data errors are quarantined: rejected records and refused sessions
  /// go to the DeadLetterQueue (when one is attached) and are counted
  /// per shard, every shard keeps sessionizing, and Finish returns OK.
  /// Inspect the dead-letter channel for what degraded.
  kDegrade,
};

/// What Offer does when the target shard's queue is full.
enum class OfferPolicy {
  /// Block the producer until the shard catches up (the default). The
  /// producer also drains an idle shard's small batch itself, so a slow
  /// SessionSink can stall it: for that batch's run, and while it waits
  /// for the emit hub's lock, which any other shard's run may hold.
  kBlock,
  /// Drop the record on the floor and count it in records_shed — load
  /// shedding for producers that must never stall. Nothing is drained
  /// on the producer thread, so a slow SessionSink never delays it.
  kShed,
};

/// Builder-style configuration for StreamEngine. Setters return *this so
/// an engine is declared in one expression:
///
///   auto engine = StreamEngine::Create(EngineOptions()
///                                          .set_num_shards(4)
///                                          .set_thresholds(thresholds)
///                                          .use_smart_sra(&graph),
///                                      &sink);
class EngineOptions {
 public:
  using FilterFactory = std::function<std::unique_ptr<LogFilter>()>;

  /// Worker shard count (>= 1). Each shard is one thread.
  EngineOptions& set_num_shards(std::size_t num_shards) {
    num_shards_ = num_shards;
    return *this;
  }

  /// Bounded per-shard queue capacity, in records.
  EngineOptions& set_queue_capacity(std::size_t capacity) {
    queue_capacity_ = capacity;
    return *this;
  }

  /// How records are attributed (and hashed) to users.
  EngineOptions& set_identity(UserIdentity identity) {
    identity_ = identity;
    return *this;
  }

  /// delta / rho used by the time-based heuristics and Smart-SRA.
  EngineOptions& set_thresholds(TimeThresholds thresholds) {
    thresholds_ = thresholds;
    return *this;
  }

  /// Page-id bound for topology validation. Defaults to the graph's
  /// num_pages() when a graph-based heuristic is chosen.
  EngineOptions& set_num_pages(std::size_t num_pages) {
    num_pages_ = num_pages;
    return *this;
  }

  /// Heuristic selection (exactly one; each shard runs one copy of the
  /// heuristic's rule over its whole user table).
  /// Names resolve through HeuristicRegistry::Default() at Create time —
  /// the same table the CLI tools use — so `name` accepts exactly the
  /// strings the tools accept ("duration", "pagestay", "navigation",
  /// "smart-sra"). Graph heuristics read the graph from use_graph.
  EngineOptions& use_heuristic(std::string name) {
    heuristic_name_ = std::move(name);
    return SetSelection(Selection::kNamed);
  }
  /// `graph` must outlive the engine. Required by graph heuristics; also
  /// the default source of the page-id bound (num_pages).
  EngineOptions& use_graph(const WebGraph* graph) {
    graph_ = graph;
    return *this;
  }
  /// Name-based sugar, kept for call-site readability.
  EngineOptions& use_duration() { return use_heuristic("duration"); }
  EngineOptions& use_page_stay() { return use_heuristic("pagestay"); }
  /// `graph` must outlive the engine.
  EngineOptions& use_navigation(const WebGraph* graph) {
    return use_graph(graph).use_heuristic("navigation");
  }
  /// `graph` must outlive the engine.
  EngineOptions& use_smart_sra(const WebGraph* graph) {
    return use_graph(graph).use_heuristic("smart-sra");
  }
  /// Escape hatch: caller-provided per-user sessionizer factory, run
  /// once per user on the user's first request.
  EngineOptions& use_custom(UserSessionizerFactory factory) {
    custom_factory_ = std::move(factory);
    return SetSelection(Selection::kCustom);
  }

  /// Failure semantics; see ErrorPolicy. Defaults to kFailFast.
  EngineOptions& set_error_policy(ErrorPolicy policy) {
    error_policy_ = policy;
    return *this;
  }

  /// Backpressure semantics; see OfferPolicy. Defaults to kBlock.
  EngineOptions& set_offer_policy(OfferPolicy policy) {
    offer_policy_ = policy;
    return *this;
  }

  /// Attaches a caller-owned dead-letter channel: quarantined inputs are
  /// offered to `queue` (which must outlive the engine) and can be
  /// drained at any time. Without one, quarantines are still counted in
  /// EngineStats::dead_letters but the inputs are discarded. Only read
  /// in kDegrade mode.
  EngineOptions& set_dead_letters(DeadLetterQueue* queue) {
    dead_letters_ = queue;
    return *this;
  }

  /// Optional observability registry (see docs/observability.md). When
  /// set, the engine registers per-shard counters, gauges and latency
  /// histograms named "engine.shard<k>.*" and updates them as it runs;
  /// `registry` must outlive the engine. When left null the handles stay
  /// disabled and the timing paths never read the clock.
  EngineOptions& set_metrics(obs::MetricRegistry* registry) {
    metrics_ = registry;
    return *this;
  }

  /// Appends a cleaning filter (applied in call order). The engine
  /// builds one instance per factory and runs it on the producer thread
  /// over each offered record's views, before the record is resolved
  /// into a shard batch; a dropped record counts in records_in and
  /// records_dropped of the shard its user hashes to.
  EngineOptions& add_filter(FilterFactory factory) {
    filter_factories_.push_back(std::move(factory));
    return *this;
  }

  /// Enables reactive top-k path mining (wum::mine): each shard mines
  /// the sessions its sink delivered into its own PathMiner, and
  /// mining() merges the shards at query time. Topology validation uses
  /// the graph from use_graph when one is set. Miner state rides every
  /// Checkpoint (a mining.state epoch file) and is restored by resume_from.
  EngineOptions& set_mining(mine::MinerOptions options) {
    mining_ = std::move(options);
    return *this;
  }

  /// Resumes from the latest committed checkpoint in `dir` (written by
  /// StreamEngine::Checkpoint). Create fails when the directory holds no
  /// checkpoint, the files are corrupt, or the checkpoint was taken
  /// under an incompatible configuration (different heuristic, identity,
  /// shard count or thresholds). After a successful Create the caller
  /// replays the original input from record zero: Offer silently skips
  /// the first records_seen records (the checkpoint already covers
  /// them), then processing continues exactly where it left off.
  EngineOptions& resume_from(std::string dir) {
    resume_dir_ = std::move(dir);
    return *this;
  }

  /// With resume_from: disables the engine's replay-by-offset skip.
  /// The default resume contract assumes one reproducible input stream
  /// replayed from record zero, with Offer skipping the first
  /// records_seen records. A front end with several independent
  /// producers (websra_serve's TCP connections) cannot reproduce the
  /// historical interleaving, so it replays *precisely* instead — each
  /// producer is resumed from its own durable byte offset (stored in the
  /// manifest's sink_state) and every record the engine now sees is new.
  /// The restored records_seen is carried forward as a base so manifest
  /// offsets stay monotonic across restarts.
  EngineOptions& resume_with_external_replay() {
    resume_external_replay_ = true;
    return *this;
  }

  /// Full options validation: every configuration Create would reject,
  /// as one precise Status instead of a scattering of asserts and
  /// clamps. Create calls this first; tools call it up front to report
  /// flag errors before any construction work. Checks shard count and
  /// queue capacity, heuristic selection (unknown names, graph
  /// heuristics without a graph), the page-id bound,
  /// OfferPolicy::kShed without a dead-letter budget, and
  /// resume_with_external_replay without resume_from.
  Status Validate() const;

 private:
  friend class StreamEngine;

  enum class Selection { kUnset, kNamed, kCustom };

  EngineOptions& SetSelection(Selection selection) {
    selection_ = selection;
    return *this;
  }

  std::size_t num_shards_ = 1;
  std::size_t queue_capacity_ = 1024;
  UserIdentity identity_ = UserIdentity::kClientIp;
  TimeThresholds thresholds_;
  std::size_t num_pages_ = 0;
  Selection selection_ = Selection::kUnset;
  std::string heuristic_name_;
  const WebGraph* graph_ = nullptr;
  UserSessionizerFactory custom_factory_;
  std::vector<FilterFactory> filter_factories_;
  obs::MetricRegistry* metrics_ = nullptr;
  ErrorPolicy error_policy_ = ErrorPolicy::kFailFast;
  OfferPolicy offer_policy_ = OfferPolicy::kBlock;
  DeadLetterQueue* dead_letters_ = nullptr;
  std::optional<mine::MinerOptions> mining_;
  std::string resume_dir_;
  bool resume_external_replay_ = false;
};

/// Throughput counters of one shard (or, aggregated, the whole engine).
/// Snapshots are safe to take from any thread while the engine runs.
struct EngineStats {
  /// Records accepted by Offer: queued for the shard, or dropped by a
  /// filter on the producer.
  std::uint64_t records_in = 0;
  /// Records discarded before sessionization: filter drops plus non-page
  /// URLs skipped by the sessionizer stage.
  std::uint64_t records_dropped = 0;
  /// Completed sessions handed to the caller's SessionSink.
  std::uint64_t sessions_emitted = 0;
  /// Offer calls that found the shard queue full and had to block — the
  /// engine's backpressure signal.
  std::uint64_t blocked_enqueues = 0;
  /// Largest queue depth observed right after an enqueue.
  std::uint64_t queue_high_watermark = 0;
  /// Records quarantined to the dead-letter channel (kDegrade mode):
  /// sessionizer rejections, the records of sessions the sink refused,
  /// and open state a failed flush lost. Counted even when no
  /// DeadLetterQueue is attached.
  std::uint64_t dead_letters = 0;
  /// Records dropped by Offer under OfferPolicy::kShed because the shard
  /// queue was full.
  std::uint64_t records_shed = 0;

  /// Aggregation: counters add, the watermark takes the max.
  EngineStats& operator+=(const EngineStats& other) {
    records_in += other.records_in;
    records_dropped += other.records_dropped;
    sessions_emitted += other.sessions_emitted;
    blocked_enqueues += other.blocked_enqueues;
    if (other.queue_high_watermark > queue_high_watermark) {
      queue_high_watermark = other.queue_high_watermark;
    }
    dead_letters += other.dead_letters;
    records_shed += other.records_shed;
    return *this;
  }
};

/// Renders "records_in=... dropped=... sessions=..." for CLI summaries.
std::string EngineStatsToString(const EngineStats& stats);

/// Owning, sharded streaming engine. Offer/Finish must be called from a
/// single producer thread (the ingest path); stats snapshots are safe
/// from any thread. The caller's SessionSink only ever sees one call at
/// a time — one shard's run at a time, under the emit hub's lock — so
/// it needs no locking of its own.
class StreamEngine {
 public:
  /// Validates options and starts the shard workers. `sink` must outlive
  /// the engine. Fails with InvalidArgument when no heuristic is chosen,
  /// a graph heuristic is missing its graph, the shard count or queue
  /// capacity is zero, or the page-id bound cannot be derived.
  static Result<std::unique_ptr<StreamEngine>> Create(EngineOptions options,
                                                      SessionSink* sink);

  /// Joins all workers (calling Finish first if the caller forgot).
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Zero-copy batch ingest, the hot path: one pass over the refs that
  /// applies the add_filter filters and resolves each kept record into
  /// its shard's ShardBatch (the only point the viewed bytes — the user
  /// key — are copied), then one hand-off per shard per batch: queued,
  /// or under kBlock drained on this thread when the batch is small and
  /// the shard idle (see ThreadedDriver::OfferBatch). The refs need only
  /// stay valid for the duration of the call. Blocks when a shard's
  /// queue is full (OfferPolicy::kBlock); under kShed an
  /// entire per-shard sub-batch is shed when its queue is full — a batch
  /// of one record therefore sheds per record, exactly like the
  /// historical Offer. Returns FailedPrecondition after Finish, or the
  /// engine's sticky error once it stopped. Resume replay skips
  /// the leading records a restored checkpoint already covers, per
  /// record, exactly as repeated Offer calls would.
  Status OfferBatch(std::span<const LogRecordRef> batch);

  /// Documented convenience wrapper: routes one record as a batch of
  /// one through OfferBatch, preserving the historical per-record
  /// semantics (blocking, shedding, replay-skip and dead-letter
  /// accounting are all defined record-by-record at batch size 1).
  Status Offer(const LogRecord& record);

  /// Signals end of stream, drains and joins every shard, flushes all
  /// open sessions, and returns the sticky error, or the first flush
  /// error that stops the engine (every flush error under kFailFast, an
  /// infrastructure one under kDegrade). Every shard is closed before
  /// any is joined, so the shards flush in parallel, each on its own
  /// worker; the runs left after the flushes reach the sink in shard
  /// order. Calling Finish twice returns FailedPrecondition.
  Status Finish();

  /// Captures caller-owned sink state at the checkpoint barrier (e.g.
  /// the committed length of a durable session journal). The returned
  /// string is stored opaquely in the manifest and handed back through
  /// resumed_sink_state() on resume; an error aborts the checkpoint.
  using SinkStateFn = std::function<Result<std::string>()>;

  /// Durable barrier-style snapshot into `dir` (see docs/
  /// checkpointing.md). Waits for every shard to drain its queue, then
  /// writes each shard's sessionizer state and counters, the dead-letter
  /// queue, a metrics snapshot and a manifest into a fresh epoch
  /// directory, committing it atomically (MANIFEST last within the
  /// epoch, then the CURRENT pointer via temp file + rename). On any
  /// failure the previous committed checkpoint is left intact. Producer
  /// thread only, like Offer; FailedPrecondition after Finish. A stopped
  /// engine refuses to checkpoint and returns its sticky error, so the
  /// previous committed checkpoint stays the resume point.
  /// `sink_state_fn`, when given, runs after the barrier while every
  /// shard is at rest.
  Status Checkpoint(const std::string& dir,
                    const SinkStateFn& sink_state_fn = nullptr);

  /// Input records consumed by Offer so far — accepted, shed or
  /// quarantined, including resume-skipped replays. Producer thread
  /// only.
  std::uint64_t records_seen() const { return records_seen_; }

  /// True when this engine was restored from a checkpoint.
  bool resumed() const { return resumed_; }

  /// The backpressure semantics Offer runs under — callers upstream of
  /// the engine (e.g. the log server's quota degradation) mirror the
  /// same policy for their own overload handling.
  OfferPolicy offer_policy() const { return offer_policy_; }

  /// Input records the checkpoint this engine resumed from had already
  /// covered (0 when !resumed()). Under the default resume contract
  /// this many leading replayed records are skipped; under
  /// resume_with_external_replay it is the base offset carried into
  /// subsequent manifests.
  std::uint64_t resumed_records_seen() const {
    return resume_base_ + resume_skip_;
  }

  /// The sink_state captured by the checkpoint this engine resumed from
  /// (empty when !resumed() or none was captured).
  const std::string& resumed_sink_state() const {
    return resumed_sink_state_;
  }

  std::size_t num_shards() const { return shards_.size(); }

  /// The per-shard miners (set_mining), or nullptr when mining is
  /// disabled. Queries are thread-safe, so PATTERNS-style queries may
  /// run from any thread while the engine streams.
  mine::MiningSink* mining() const { return mining_.get(); }

  /// Per-shard snapshots, index == shard id.
  std::vector<EngineStats> ShardStats() const;

  /// Aggregate snapshot across all shards.
  EngineStats TotalStats() const;

  /// Per-shard health, index == shard id: OK while the shard is healthy,
  /// the error that stopped it (its own, or the engine's sticky error it
  /// met on its next run delivery) once it stopped, or its failed flush.
  /// Safe from any thread.
  std::vector<Status> ShardHealth() const;

  /// Event-time watermark of shard `shard` — the largest CLF timestamp
  /// (UNIX seconds) it has absorbed, 0 before its first record. Safe
  /// from any thread (backs the watermark gauges and /statusz).
  std::uint64_t ShardWatermarkSeconds(std::size_t shard) const;

  /// Records currently queued ahead of shard `shard`'s worker. Safe
  /// from any thread.
  std::size_t ShardQueueDepth(std::size_t shard) const;

 private:
  struct Shard;
  class EmitHub;
  class ShardEmit;

  StreamEngine(EngineOptions options, SessionizeSinkFactory make_sink,
               SessionSink* sink);

  /// The shard of a record whose user hashes to `hash` (UserHashFor).
  std::size_t ShardIndexFor(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash % shards_.size());
  }
  EngineStats SnapshotShard(const Shard& shard) const;
  /// Counts one quarantined input against `shard` and offers it to the
  /// dead-letter channel when one is attached.
  void Quarantine(Shard& shard, DeadLetter letter);
  /// Quarantines one shard record, with a LogRecord rebuilt from every
  /// field the shard reads (see docs/robustness.md).
  void QuarantineRecord(Shard& shard, DeadLetter::Stage stage,
                        const Status& reason, std::string_view user_key,
                        const ShardRecord& record);
  /// Second construction phase: creates the per-shard drivers (worker
  /// threads). Runs after RestoreFrom so state restore never races a
  /// live worker.
  void StartWorkers();
  /// Loads the committed checkpoint from `dir` into the (not yet
  /// started) shards; validates the manifest fingerprint first.
  Status RestoreFrom(const std::string& dir);
  /// Registers the scrape-time gauge probe (watermarks, queue depths,
  /// user-table sizes, watermark lag/skew) on registry_. Runs after
  /// StartWorkers — the probe reads the drivers — and is undone by the
  /// destructor, since the registry usually outlives the engine. No-op
  /// without a registry.
  void RegisterScrapeProbe();

  UserIdentity identity_;
  ErrorPolicy error_policy_;
  OfferPolicy offer_policy_;
  DeadLetterQueue* dead_letters_;
  /// Fed by ShardEmit after each run delivery. Destroyed after the shards
  /// (declaration order), so workers never outlive it.
  std::unique_ptr<mine::MiningSink> mining_;
  std::unique_ptr<EmitHub> emit_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-shard staging batches for OfferBatch's partition pass (indexed
  /// by shard). Producer thread only. An inline drain reads one in
  /// place; a queued hand-off takes an exact-size copy. Either way it
  /// keeps its own buffers for the next call.
  std::vector<ShardBatch> staging_;
  /// Filter drops of the batch in flight, per shard (producer thread).
  std::vector<std::uint64_t> staging_filtered_;
  /// The add_filter chain, one instance per factory, run only by the
  /// producer thread.
  FilterChain filters_;
  bool finished_ = false;
  /// Probe handle from RegisterScrapeProbe (0 = none registered).
  std::size_t scrape_probe_id_ = 0;
  /// The probe's body; the destructor runs it once more.
  std::function<void()> refresh_gauges_;

  // Checkpoint/resume state. records_seen_ is producer-thread only.
  std::size_t queue_capacity_;
  obs::MetricRegistry* registry_;
  std::string heuristic_name_;  // registry name or "custom"
  TimeThresholds thresholds_;
  std::string resume_dir_;
  bool resume_external_replay_ = false;
  std::uint64_t records_seen_ = 0;
  std::uint64_t resume_skip_ = 0;
  /// Records covered by the resumed-from checkpoint when the replay is
  /// external (resume_with_external_replay): added into every manifest's
  /// records_seen so offsets stay monotonic across restarts.
  std::uint64_t resume_base_ = 0;
  std::uint64_t next_epoch_ = 1;
  std::string resumed_sink_state_;
  bool resumed_ = false;
  obs::Counter ckpt_written_;
  obs::Counter ckpt_bytes_;
  obs::Counter ckpt_resume_skipped_;
  obs::Histogram ckpt_latency_us_;
};

}  // namespace wum

#endif  // WUM_STREAM_ENGINE_H_
