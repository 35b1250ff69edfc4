// Two-thread driver: the caller's thread produces records while a worker
// thread feeds them to a RecordSink, decoupled by a bounded queue. This
// is the "reactive" deployment shape — the ingest path (the web server
// appending to its log) never waits on session reconstruction, which is
// the paper's argument for reactive over proactive processing.

#ifndef WUM_STREAM_THREADED_DRIVER_H_
#define WUM_STREAM_THREADED_DRIVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "wum/clf/log_record.h"
#include "wum/common/result.h"
#include "wum/obs/metrics.h"
#include "wum/obs/trace.h"
#include "wum/stream/spsc_queue.h"

namespace wum {

/// Unit of queue hand-off between a producer and a shard worker. The
/// shard queue's capacity is counted in records (batch weight), so
/// batching changes how often the queue mutex is taken — once per batch
/// instead of once per record — without changing backpressure semantics.
using RecordBatch = std::vector<LogRecord>;

/// The driver's consumer: receives every drained record on the worker
/// thread. The sharded engine plugs its SessionizeSink in here; tests
/// plug in fakes.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Processes one record. A non-OK status aborts the stream.
  virtual Status Accept(const LogRecord& record) = 0;

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
  /// Wall time the worker spends draining one record through the sink
  /// (sessionizer + emission), in microseconds.
  obs::Histogram drain_latency_us;
  /// Optional span tracer: each drained record becomes a "drain" span
  /// tagged shard=trace_shard, seq=<records drained before it>.
  obs::Tracer tracer;
  std::uint64_t trace_shard = 0;
};

/// Failure-domain hooks, called on the worker thread. Both optional;
/// without them every sink error is sticky and fatal to the driver
/// (the historical fail-fast behavior). The sharded engine installs
/// them in ErrorPolicy::kDegrade mode to quarantine records instead.
struct DriverHooks {
  /// The sink rejected `record` with `status`. Return true when the
  /// failure is handled (record quarantined, worker keeps going); false
  /// makes `status` the driver's sticky error.
  std::function<bool(const LogRecord&, const Status&)> on_record_error;
  /// `record` was drained and discarded after the sticky error
  /// `first_error` was already set (the shard is dead; the record never
  /// entered the sink).
  std::function<void(const LogRecord&, const Status&)> on_discard;
  /// Every record of `batch` has been handled (processed, quarantined
  /// or discarded); the batch is handed over for buffer recycling — its
  /// records' string capacities can be reused by the producer to stage
  /// later batches without reallocating. Runs on the worker thread,
  /// before the drained count is published.
  std::function<void(RecordBatch&&)> on_batch_drained;
  /// Called on the worker thread just before a batch's records drain,
  /// with the obs::internal::NowMicros() stamp captured when the
  /// producer offered the batch (0 when the stamp was lost to a race).
  /// Installing this hook is what turns on accept-time stamping; when
  /// absent the offer path never reads the clock. The sharded engine
  /// uses it to measure ingest→emit latency at the emit hub.
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

  /// Enqueues a batch of records with one queue hand-off; blocks when
  /// the queue is full (counted once in blocked_enqueues). On OK the
  /// batch has been moved into the queue; on any error it is left
  /// untouched in `*batch` so the caller can quarantine or retry the
  /// records. Returns FailedPrecondition after Finish, or the sink's
  /// first error — including while blocked: a producer waiting on a
  /// full queue whose worker just died is woken and handed the sticky
  /// error instead of waiting forever. An empty batch is a no-op.
  Status OfferBatch(RecordBatch* batch);

  /// Convenience wrapper: enqueues one record as a batch of one, with
  /// semantics identical to the historical per-record Offer.
  Status Offer(const LogRecord& record);

  /// Non-blocking variant: when the queue is full, sets `*accepted` to
  /// false and returns OK without enqueueing (the batch stays in
  /// `*batch`; shed accounting is the caller's). Otherwise behaves like
  /// OfferBatch with `*accepted = true`.
  Status TryOfferBatch(RecordBatch* batch, bool* accepted);

  /// Signals end of stream, waits for the worker to drain, and returns
  /// the first sink error, or the sink's Finish status.
  Status Finish();

  /// Quiescence barrier: blocks the producer until every record it ever
  /// enqueued has been fully handled by the worker (processed,
  /// quarantined or discarded) and the queue is empty, or the worker
  /// recorded its sticky error — in which case that error is returned.
  /// On OK the chain below the driver is at rest and will stay at rest
  /// until the producer offers again, which makes its state safe to
  /// snapshot. Producer thread only, like Offer.
  Status WaitIdle();

  /// Drain barrier that ignores the sticky error: blocks until every
  /// record ever enqueued has been handled (processed, quarantined or
  /// discarded), even on a dead driver whose worker is still discarding
  /// its queue. After it returns the discard hook is quiet, so
  /// quarantine accounting for everything offered so far is complete —
  /// the barrier a checkpoint needs over a failed shard, where WaitIdle
  /// returns early. Producer thread only, like Offer.
  void WaitDrained();

  /// Number of Offer calls that found the queue full and had to block —
  /// the backpressure signal of this driver.
  std::uint64_t blocked_enqueues() const {
    return blocked_enqueues_.load(std::memory_order_relaxed);
  }

  /// Largest queue depth observed right after an enqueue.
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
  Status CheckOfferable();
  void NoteDepth(std::size_t depth);
  /// Producer side of the accept-stamp channel (no-ops without the
  /// on_batch_start hook): push before enqueueing, take back on an
  /// enqueue that failed or shed.
  void PushStamp();
  void UnpushStamp();
  /// Worker side: the stamp for the batch just popped (0 when absent).
  double PopStamp();
  /// Worker side of WaitIdle: counts `count` fully handled records and
  /// wakes a waiting producer when one is registered.
  void NoteDrained(std::uint64_t count);

  SpscQueue<RecordBatch> queue_;
  RecordSink* sink_;
  DriverMetrics metrics_;
  DriverHooks hooks_;
  std::thread worker_;
  mutable std::mutex status_mutex_;
  Status first_error_;   // sticky first failure from the worker
  // Mirrors !first_error_.ok(); readable without the mutex so blocked
  // producers (PushUnless) and the drain path can poll it cheaply.
  std::atomic<bool> failed_{false};
  bool finished_ = false;
  std::atomic<std::uint64_t> blocked_enqueues_{0};
  std::atomic<std::size_t> queue_high_watermark_{0};
  // WaitIdle state. pushed_ is touched only by the producer thread;
  // drained_ only by the worker; both are read cross-thread under
  // idle_mutex_'s condvar protocol. The seq_cst store of idle_waiting_
  // (producer) against the seq_cst drained_ increment + idle_waiting_
  // load (worker) guarantees the worker either sees the waiter and
  // notifies, or the waiter's predicate already sees the final count.
  std::uint64_t pushed_ = 0;
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<bool> idle_waiting_{false};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  // Accept stamps riding alongside the queue (same FIFO order: one
  // producer pushes both, one worker pops both). Touched once per
  // *batch* and only when on_batch_start is installed.
  std::mutex stamp_mutex_;
  std::deque<double> stamps_;
};

}  // namespace wum

#endif  // WUM_STREAM_THREADED_DRIVER_H_
