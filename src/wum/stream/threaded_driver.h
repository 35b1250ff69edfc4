// Two-thread driver: the caller's thread produces records while a worker
// thread feeds them to a RecordSink, decoupled by a bounded queue. This
// is the "reactive" deployment shape — the ingest path (the web server
// appending to its log) keeps reading while sessions are reconstructed,
// which is the paper's argument for reactive over proactive processing.
// On the blocking path (OfferBatch, which the engine uses under
// OfferPolicy::kBlock) it waits only for an idle shard's batch of at
// most kInlineDrainMaxRecords (64) records, which it drains itself:
// sessionizing a few records costs less than waking the worker.

#ifndef WUM_STREAM_THREADED_DRIVER_H_
#define WUM_STREAM_THREADED_DRIVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "wum/clf/log_record.h"
#include "wum/clf/user_partitioner.h"
#include "wum/common/result.h"
#include "wum/obs/metrics.h"
#include "wum/stream/spsc_queue.h"

namespace wum {

/// Page id of a record whose URL is not a canonical page URL (above
/// every 32-bit page id). Such records still travel to their shard.
inline constexpr std::uint64_t kNotAPage = ~std::uint64_t{0};

/// One kept record as a shard consumes it: the three fields
/// sessionization reads, plus its user key's hash. The user key lives in
/// its batch's byte arena.
struct ShardRecord {
  std::uint32_t key_offset = 0;
  std::uint32_t key_length = 0;
  /// Canonical page id, or kNotAPage.
  std::uint64_t page = kNotAPage;
  TimeSeconds timestamp = 0;
  /// UserKeyHash of the user key: computed once on the producer, it
  /// chose the shard and indexes the shard's user table.
  std::uint64_t hash = 0;
};

/// Unit of queue hand-off between a producer and a shard worker: flat
/// records plus the byte arena of their user keys. Queue capacity is
/// counted in records (batch weight), so batching only changes how often
/// the queue mutex is taken.
struct ShardBatch {
  std::string keys;
  std::vector<ShardRecord> records;
  /// obs::internal::NowMicros() when the batch was offered to its
  /// driver; 0 unless the driver's on_batch_start hook is installed.
  double offered_at_us = 0.0;

  /// Resolves `ref` into a shard record: its user key (see
  /// AppendUserKey) is written once into the arena, its URL becomes its
  /// page id (kNotAPage when not canonical), and `hash` — which must be
  /// UserHashFor(ref.client_ip, ref.user_agent, identity) — rides along.
  void Append(const LogRecordRef& ref, UserIdentity identity,
              std::uint64_t hash);
  /// As above, computing the hash.
  void Append(const LogRecordRef& ref, UserIdentity identity) {
    Append(ref, identity, UserHashFor(ref.client_ip, ref.user_agent, identity));
  }

  std::string_view KeyOf(const ShardRecord& record) const {
    return std::string_view(keys.data() + record.key_offset, record.key_length);
  }
  void clear() {
    keys.clear();
    records.clear();
    offered_at_us = 0.0;
  }
};

/// The driver's consumer: receives every drained record, on the worker
/// thread or on the producer thread for an inline drain (see
/// ThreadedDriver::OfferBatch) — never on both at once. The sharded
/// engine plugs its SessionizeSink in here; tests plug in fakes.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Processes one record of `user_key`. A non-OK status aborts the stream.
  virtual Status Accept(std::string_view user_key,
                        const ShardRecord& record) = 0;

  /// Signals end-of-stream; implementations flush buffered state.
  /// Called exactly once, after the last Accept.
  virtual Status Finish() = 0;
};

/// Optional observability handles for one driver (see wum/obs/metrics.h).
/// Default-constructed (disabled) handles make every update a no-op and
/// keep the clock untouched, so an uninstrumented driver pays only a
/// couple of predictable branches per record.
struct DriverMetrics {
  /// Mirrors blocked_enqueues() into a registry counter.
  obs::Counter blocked_enqueues;
  /// Microseconds the producer spent blocked on a full queue (the
  /// kBlock backpressure stall time). Only accumulated on the
  /// already-slow blocked path, so enabling it costs the hot path
  /// nothing.
  obs::Counter blocked_wait_us;
  /// Mirrors queue_high_watermark() into a registry gauge.
  obs::Gauge queue_high_watermark;
  /// Wall time spent draining one record through the sink, in
  /// microseconds. The engine's sink is the sessionizer; the shard's run
  /// of closed sessions is delivered after the batch, outside this
  /// timer, except when the record fills the run.
  obs::Histogram drain_latency_us;
  /// Batches OfferBatch drained on the producer thread instead of
  /// queueing them for the worker.
  obs::Counter inline_batches;
  /// Index of the shard this driver serves, for its log lines.
  std::uint64_t shard = 0;
};

/// Driver hooks, called on whichever thread drains the batch: the
/// worker, or the producer for an inline drain — one at a time, in offer
/// order. All optional; without on_record_error every sink error is
/// sticky and fatal to the driver. Once the sticky error is set the
/// driver still consumes and counts every record it drains, so a
/// producer never wedges on a full queue, but delivers none of them.
struct DriverHooks {
  /// The sink rejected `record` of user `user_key` with `status`.
  /// Return true when the failure is handled (record quarantined, worker
  /// keeps going); false makes `status` the driver's sticky error. The
  /// sharded engine decides by its failure rule (see IsShardFatal).
  std::function<bool(std::string_view, const ShardRecord&, const Status&)>
      on_record_error;
  /// Every record of the batch just drained has been handled (processed,
  /// quarantined or discarded). Runs before the drained count is
  /// published, so WaitIdle returns only after it did. The sharded
  /// engine delivers the shard's run of closed sessions here. A non-OK
  /// status becomes the driver's sticky error, as an unhandled record
  /// error does.
  std::function<Status()> on_batch_drained;
  /// Called just before a batch's records drain, with the batch's
  /// offered_at_us stamp. Installing this hook is what turns on
  /// offer-time stamping; when absent the offer path never reads the
  /// clock. The sharded engine uses it to measure ingest→emit latency at
  /// the emit hub.
  std::function<void(double accept_stamp_us)> on_batch_start;
};

/// Owns the worker thread and the queue feeding a RecordSink.
class ThreadedDriver {
 public:
  /// `sink` must outlive the driver. `queue_capacity` bounds the number
  /// of in-flight records. `metrics` handles and `hooks` are copied
  /// before the worker starts; their referents must outlive the driver.
  explicit ThreadedDriver(RecordSink* sink, std::size_t queue_capacity = 1024,
                          DriverMetrics metrics = {}, DriverHooks hooks = {});

  /// Joins the worker (calling Finish first if the caller forgot).
  ~ThreadedDriver();

  ThreadedDriver(const ThreadedDriver&) = delete;
  ThreadedDriver& operator=(const ThreadedDriver&) = delete;

  /// Batches up to this size may drain on the producer thread (see
  /// OfferBatch). Larger ones always go to the worker, so a bulk
  /// producer keeps its parallelism.
  static constexpr std::size_t kInlineDrainMaxRecords = 64;

  /// Hands a batch of records to the sink. When the batch holds at most
  /// kInlineDrainMaxRecords records, the queue is empty and the worker
  /// is not mid-batch, the batch drains right here on the calling thread
  /// (counted in inline_batches) — per-shard FIFO order holds because
  /// nothing older is pending. Otherwise an exact-size copy is queued
  /// with one hand-off, blocking while the queue is full (counted once
  /// in blocked_enqueues). On OK `*batch` is cleared and keeps its
  /// buffers for reuse; on any error its records are left in `*batch`
  /// so the caller can quarantine or retry them. Returns FailedPrecondition
  /// after Finish, or the sink's first error — including while blocked:
  /// a producer waiting on a full queue whose worker just died is woken
  /// and handed the sticky error instead of waiting forever. A sink
  /// error inside an inline drain becomes that sticky error: the call
  /// that drained still returns OK (its records were handled) and the
  /// next one returns the error. An empty batch is a no-op.
  Status OfferBatch(ShardBatch* batch);

  /// Non-blocking variant that never drains inline, so the producer
  /// never waits on the sink: when the queue is full, sets `*accepted`
  /// to false and returns OK without enqueueing (the batch stays in
  /// `*batch`; shed accounting is the caller's). Otherwise queues like
  /// OfferBatch with `*accepted = true`.
  Status TryOfferBatch(ShardBatch* batch, bool* accepted);

  /// Signals end of stream, waits for the worker to drain, and returns
  /// the first sink error, or the sink's Finish status.
  Status Finish();

  /// Quiescence barrier: blocks the producer until every record it ever
  /// offered has been fully handled (processed,
  /// quarantined or discarded) and the queue is empty, or the worker
  /// recorded its sticky error — in which case that error is returned.
  /// On OK the chain below the driver is at rest and will stay at rest
  /// until the producer offers again, which makes its state safe to
  /// snapshot. Producer thread only, like OfferBatch.
  Status WaitIdle();

  /// Number of offers that found the queue full and had to block — the
  /// backpressure signal of this driver.
  std::uint64_t blocked_enqueues() const {
    return blocked_enqueues_.load(std::memory_order_relaxed);
  }

  /// Largest queue depth observed right after an enqueue (an inline
  /// drain enqueues nothing).
  std::size_t queue_high_watermark() const {
    return queue_high_watermark_.load(std::memory_order_relaxed);
  }

  /// Records currently queued (the live backlog, not the watermark).
  /// Safe from any thread; scrape-time probes read this.
  std::size_t queue_depth() const { return queue_.weight(); }

  /// True once the worker recorded a sticky error (the shard is dead).
  /// Safe from any thread.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Snapshot of the sticky error (OK while healthy). Safe from any
  /// thread.
  Status first_error() const;

 private:
  void Run();
  /// Feeds every record of `batch` to the sink (skipping them once the
  /// driver failed), then publishes the drained count. Caller holds
  /// drain_mutex_: the worker for a popped batch, the producer for an
  /// inline drain.
  void DrainBatch(const ShardBatch& batch);
  /// Makes `status` the sticky error unless one is set, and wakes a
  /// producer blocked on the full queue.
  void Fail(Status status);
  /// OfferBatch's inline path: drains `batch` on the calling thread and
  /// returns true when the worker is idle and the queue empty; false
  /// (nothing done) otherwise.
  bool TryDrainInline(const ShardBatch& batch);
  Status CheckOfferable();
  /// Sets batch->offered_at_us when on_batch_start is installed.
  void StampOffer(ShardBatch* batch) const;
  /// Queues an exact-size copy of `*batch`, counts it and clears
  /// `*batch` (*accepted = true). When the queue is full it waits for
  /// space if `block`, else returns OK with *accepted false and `*batch`
  /// untouched.
  Status Enqueue(ShardBatch* batch, bool block, bool* accepted);
  void NoteDepth(std::size_t depth);
  /// Counts `count` fully handled records and wakes a waiting producer
  /// when one is registered.
  void NoteDrained(std::uint64_t count);

  SpscQueue<ShardBatch> queue_;
  RecordSink* sink_;
  DriverMetrics metrics_;
  DriverHooks hooks_;
  // Held by whoever drains a batch. The worker waits for a non-empty
  // queue without it, then pops and drains under it; the producer
  // drains inline only when try_lock wins and the queue is still empty,
  // so every batch it could overtake has already drained.
  std::mutex drain_mutex_;
  mutable std::mutex status_mutex_;
  Status first_error_;   // sticky first failure of the sink
  // Mirrors !first_error_.ok(); readable without the mutex so blocked
  // producers (PushUnless) and the drain path can poll it cheaply.
  std::atomic<bool> failed_{false};
  bool finished_ = false;
  std::atomic<std::uint64_t> blocked_enqueues_{0};
  std::atomic<std::size_t> queue_high_watermark_{0};
  // WaitIdle state. pushed_ is touched only by the producer thread;
  // drained_ only under drain_mutex_; both are read cross-thread under
  // idle_mutex_'s condvar protocol. The seq_cst store of idle_waiting_
  // (producer) against the seq_cst drained_ increment + idle_waiting_
  // load (worker) guarantees the worker either sees the waiter and
  // notifies, or the waiter's predicate already sees the final count.
  std::uint64_t pushed_ = 0;
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<bool> idle_waiting_{false};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  // Last, so every member Run() touches exists before it starts.
  std::thread worker_;
};

}  // namespace wum

#endif  // WUM_STREAM_THREADED_DRIVER_H_
