#include "wum/stream/threaded_driver.h"

#include <utility>

#include "wum/obs/log.h"

namespace wum {

ThreadedDriver::ThreadedDriver(RecordSink* sink, std::size_t queue_capacity,
                               DriverMetrics metrics, DriverHooks hooks)
    : queue_(queue_capacity),
      sink_(sink),
      metrics_(std::move(metrics)),
      hooks_(std::move(hooks)),
      worker_([this] { Run(); }) {}

ThreadedDriver::~ThreadedDriver() {
  if (!finished_) (void)Finish();
}

Status ThreadedDriver::first_error() const {
  std::lock_guard<std::mutex> lock(status_mutex_);
  return first_error_;
}

void ThreadedDriver::NoteDrained(std::uint64_t count) {
  drained_.fetch_add(count, std::memory_order_seq_cst);
  if (idle_waiting_.load(std::memory_order_seq_cst)) {
    // Take the lock so the notify cannot slip between a waiter's
    // predicate check and its sleep.
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

void ThreadedDriver::PushStamp() {
  if (hooks_.on_batch_start == nullptr) return;
  const double now = obs::internal::NowMicros();
  std::lock_guard<std::mutex> lock(stamp_mutex_);
  stamps_.push_back(now);
}

void ThreadedDriver::UnpushStamp() {
  if (hooks_.on_batch_start == nullptr) return;
  std::lock_guard<std::mutex> lock(stamp_mutex_);
  if (!stamps_.empty()) stamps_.pop_back();
}

double ThreadedDriver::PopStamp() {
  std::lock_guard<std::mutex> lock(stamp_mutex_);
  if (stamps_.empty()) return 0.0;
  const double stamp = stamps_.front();
  stamps_.pop_front();
  return stamp;
}

void ThreadedDriver::Run() {
  while (true) {
    std::optional<RecordBatch> batch = queue_.Pop();
    if (!batch.has_value()) return;  // closed and drained
    if (hooks_.on_batch_start != nullptr) {
      hooks_.on_batch_start(PopStamp());
    }
    // Per-record semantics inside the batch are identical to the old
    // record-at-a-time loop: a sticky error set mid-batch routes every
    // later record of that batch (and of later batches) to the discard
    // hook, never into the sink. Drained records are counted once
    // per batch — WaitIdle/WaitDrained only observe the total, and the
    // worker never blocks mid-batch, so the coarser publication is
    // indistinguishable to a waiter.
    const std::uint64_t drained_before =
        drained_.load(std::memory_order_relaxed);
    std::uint64_t handled = 0;
    for (const LogRecord& record : *batch) {
      ++handled;
      if (failed_.load(std::memory_order_relaxed)) {
        // Drain after failure: keep consuming so the producer never
        // wedges on a full queue, reporting each discarded record when
        // asked.
        if (hooks_.on_discard != nullptr) {
          hooks_.on_discard(record, first_error());
        }
        continue;
      }
      Status status;
      {
        obs::ScopedTimer timer(metrics_.drain_latency_us);
        obs::ScopedSpan span(metrics_.tracer, "drain", metrics_.trace_shard,
                             drained_before + handled - 1);
        status = sink_->Accept(record);
      }
      if (status.ok()) continue;
      if (hooks_.on_record_error != nullptr &&
          hooks_.on_record_error(record, status)) {
        continue;  // quarantined; the shard lives on
      }
      obs::LogError("driver.failed")("shard", metrics_.trace_shard)(
          "error", status.ToString());
      {
        std::lock_guard<std::mutex> lock(status_mutex_);
        if (first_error_.ok()) first_error_ = std::move(status);
      }
      failed_.store(true, std::memory_order_release);
      // Rouse a producer blocked on the full queue so it observes the
      // sticky error instead of waiting for space that may never come.
      queue_.WakeAll();
    }
    if (hooks_.on_batch_drained != nullptr) {
      hooks_.on_batch_drained(std::move(*batch));
    }
    NoteDrained(handled);
  }
}

Status ThreadedDriver::CheckOfferable() {
  if (finished_) {
    return Status::FailedPrecondition("driver already finished");
  }
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  return first_error();
}

void ThreadedDriver::NoteDepth(std::size_t depth) {
  // Single producer: a racy read-modify-write max is exact here.
  if (depth > queue_high_watermark_.load(std::memory_order_relaxed)) {
    queue_high_watermark_.store(depth, std::memory_order_relaxed);
    metrics_.queue_high_watermark.MaxOf(depth);
  }
}

Status ThreadedDriver::OfferBatch(RecordBatch* batch) {
  WUM_RETURN_NOT_OK(CheckOfferable());
  if (batch->empty()) return Status::OK();
  const std::size_t weight = batch->size();
  std::size_t depth = 0;
  PushStamp();
  switch (queue_.TryPush(std::move(*batch), weight, &depth)) {
    case SpscQueue<RecordBatch>::PushOutcome::kOk:
      break;
    case SpscQueue<RecordBatch>::PushOutcome::kClosed:
      UnpushStamp();
      return Status::FailedPrecondition("queue closed");
    case SpscQueue<RecordBatch>::PushOutcome::kFull: {
      blocked_enqueues_.fetch_add(1, std::memory_order_relaxed);
      metrics_.blocked_enqueues.Increment();
      // Time the stall only on this already-blocked path; the fast
      // path above never reads the clock for it.
      const bool timed = metrics_.blocked_wait_us.enabled();
      const double wait_start = timed ? obs::internal::NowMicros() : 0.0;
      const SpscQueue<RecordBatch>::BlockingPushOutcome outcome =
          queue_.PushUnless(
              std::move(*batch),
              [this] { return failed_.load(std::memory_order_acquire); },
              weight, &depth);
      if (timed) {
        metrics_.blocked_wait_us.Increment(static_cast<std::uint64_t>(
            obs::internal::NowMicros() - wait_start));
      }
      switch (outcome) {
        case SpscQueue<RecordBatch>::BlockingPushOutcome::kOk:
          break;
        case SpscQueue<RecordBatch>::BlockingPushOutcome::kClosed:
          UnpushStamp();
          return Status::FailedPrecondition("queue closed");
        case SpscQueue<RecordBatch>::BlockingPushOutcome::kAborted:
          UnpushStamp();
          return first_error();
      }
      break;
    }
  }
  pushed_ += weight;
  NoteDepth(depth);
  return Status::OK();
}

Status ThreadedDriver::Offer(const LogRecord& record) {
  RecordBatch batch(1, record);
  return OfferBatch(&batch);
}

Status ThreadedDriver::TryOfferBatch(RecordBatch* batch, bool* accepted) {
  *accepted = false;
  WUM_RETURN_NOT_OK(CheckOfferable());
  if (batch->empty()) {
    *accepted = true;
    return Status::OK();
  }
  const std::size_t weight = batch->size();
  std::size_t depth = 0;
  PushStamp();
  switch (queue_.TryPush(std::move(*batch), weight, &depth)) {
    case SpscQueue<RecordBatch>::PushOutcome::kOk:
      break;
    case SpscQueue<RecordBatch>::PushOutcome::kClosed:
      UnpushStamp();
      return Status::FailedPrecondition("queue closed");
    case SpscQueue<RecordBatch>::PushOutcome::kFull:
      UnpushStamp();
      return Status::OK();
  }
  *accepted = true;
  pushed_ += weight;
  NoteDepth(depth);
  return Status::OK();
}

Status ThreadedDriver::WaitIdle() {
  if (finished_) {
    return Status::FailedPrecondition("driver already finished");
  }
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_waiting_.store(true, std::memory_order_seq_cst);
  idle_cv_.wait(lock, [this] {
    return failed_.load(std::memory_order_acquire) ||
           drained_.load(std::memory_order_seq_cst) >= pushed_;
  });
  idle_waiting_.store(false, std::memory_order_seq_cst);
  if (failed_.load(std::memory_order_acquire)) return first_error();
  return Status::OK();
}

void ThreadedDriver::WaitDrained() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_waiting_.store(true, std::memory_order_seq_cst);
  idle_cv_.wait(lock, [this] {
    return drained_.load(std::memory_order_seq_cst) >= pushed_;
  });
  idle_waiting_.store(false, std::memory_order_seq_cst);
}

Status ThreadedDriver::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("driver already finished");
  }
  finished_ = true;
  queue_.Close();
  worker_.join();
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (!first_error_.ok()) return first_error_;
  }
  return sink_->Finish();
}

}  // namespace wum
