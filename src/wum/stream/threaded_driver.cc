#include "wum/stream/threaded_driver.h"

#include <utility>

#include "wum/obs/log.h"

namespace wum {

void ShardBatch::Append(const LogRecordRef& ref, UserIdentity identity,
                        std::uint64_t hash) {
  const std::size_t offset = keys.size();
  AppendUserKey(ref.client_ip, ref.user_agent, identity, &keys);
  const std::optional<std::uint32_t> page = PageFromUrl(ref.url);
  records.push_back({static_cast<std::uint32_t>(offset),
                     static_cast<std::uint32_t>(keys.size() - offset),
                     page.has_value() ? std::uint64_t{*page} : kNotAPage,
                     ref.timestamp, hash});
}

ThreadedDriver::ThreadedDriver(RecordSink* sink, std::size_t queue_capacity,
                               DriverMetrics metrics, DriverHooks hooks)
    : queue_(queue_capacity),
      sink_(sink),
      metrics_(std::move(metrics)),
      hooks_(std::move(hooks)),
      worker_([this] { Run(); }) {}

ThreadedDriver::~ThreadedDriver() {
  if (worker_.joinable()) (void)Finish();
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

void ThreadedDriver::Run() {
  while (queue_.WaitNonEmpty()) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    // The worker is the only consumer, so the batch it waited for is
    // still there.
    std::optional<ShardBatch> batch = queue_.TryPop();
    if (batch.has_value()) DrainBatch(*batch);
  }
  // Closed and drained: the end-of-stream flush runs here, on this
  // shard's own thread. No producer drains inline after Close, so the
  // lock is never contended; it keeps the sink under drain_mutex_.
  std::lock_guard<std::mutex> lock(drain_mutex_);
  if (!failed_.load(std::memory_order_acquire)) {
    finish_status_ = sink_->Finish();
  }
}

void ThreadedDriver::DrainBatch(const ShardBatch& batch) {
  if (hooks_.on_batch_start != nullptr) {
    hooks_.on_batch_start(batch.offered_at_us);
  }
  // A sticky error set mid-batch skips every later record of that batch
  // (and of later batches): they are consumed and counted, so the
  // producer never wedges on a full queue, but never enter the sink.
  // Drained records are counted once per batch — WaitIdle only observes
  // the total, and a drain never blocks mid-batch, so the coarser
  // publication is indistinguishable to a waiter.
  for (const ShardRecord& record : batch.records) {
    if (failed_.load(std::memory_order_relaxed)) break;
    const std::string_view user_key = batch.KeyOf(record);
    Status status;
    {
      obs::ScopedTimer timer(metrics_.drain_latency_us);
      status = sink_->Accept(user_key, record);
    }
    if (status.ok()) continue;
    if (hooks_.on_record_error != nullptr &&
        hooks_.on_record_error(user_key, record, status)) {
      continue;  // quarantined; the shard lives on
    }
    Fail(std::move(status));
  }
  if (hooks_.on_batch_drained != nullptr) {
    Status status = hooks_.on_batch_drained();
    if (!status.ok()) Fail(std::move(status));
  }
  NoteDrained(batch.records.size());
}

void ThreadedDriver::Fail(Status status) {
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (!first_error_.ok()) return;
    first_error_ = status;
  }
  obs::LogError("driver.failed")("shard", metrics_.shard)(
      "error", status.ToString());
  failed_.store(true, std::memory_order_release);
  // Rouse a producer blocked on the full queue so it observes the
  // sticky error instead of waiting for space that may never come.
  queue_.WakeAll();
}

bool ThreadedDriver::TryDrainInline(const ShardBatch& batch) {
  std::unique_lock<std::mutex> lock(drain_mutex_, std::try_to_lock);
  // Holding drain_mutex_ with an empty queue means every earlier batch
  // has been popped and fully drained: only this thread pushes, and the
  // worker pops and drains under the same lock.
  if (!lock.owns_lock() || queue_.size() != 0) return false;
  pushed_ += batch.records.size();
  metrics_.inline_batches.Increment();
  DrainBatch(batch);
  return true;
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

void ThreadedDriver::StampOffer(ShardBatch* batch) const {
  if (hooks_.on_batch_start != nullptr) {
    batch->offered_at_us = obs::internal::NowMicros();
  }
}

Status ThreadedDriver::Enqueue(ShardBatch* batch, bool block,
                               bool* accepted) {
  *accepted = false;
  const std::size_t weight = batch->records.size();
  // The queue gets an exact-size copy (two allocations), so it holds no
  // growth slack, and the caller's batch keeps its buffers for the next
  // call. Both pushes move from the copy only on success.
  ShardBatch handoff = *batch;
  std::size_t depth = 0;
  switch (queue_.TryPush(std::move(handoff), weight, &depth)) {
    case SpscQueue<ShardBatch>::PushOutcome::kOk:
      break;
    case SpscQueue<ShardBatch>::PushOutcome::kClosed:
      return Status::FailedPrecondition("queue closed");
    case SpscQueue<ShardBatch>::PushOutcome::kFull: {
      if (!block) return Status::OK();
      blocked_enqueues_.fetch_add(1, std::memory_order_relaxed);
      metrics_.blocked_enqueues.Increment();
      // Time the stall only on this already-blocked path; the fast
      // path above never reads the clock for it.
      const bool timed = metrics_.blocked_wait_us.enabled();
      const double wait_start = timed ? obs::internal::NowMicros() : 0.0;
      const SpscQueue<ShardBatch>::BlockingPushOutcome outcome =
          queue_.PushUnless(
              std::move(handoff),
              [this] { return failed_.load(std::memory_order_acquire); },
              weight, &depth);
      if (timed) {
        metrics_.blocked_wait_us.Increment(static_cast<std::uint64_t>(
            obs::internal::NowMicros() - wait_start));
      }
      switch (outcome) {
        case SpscQueue<ShardBatch>::BlockingPushOutcome::kOk:
          break;
        case SpscQueue<ShardBatch>::BlockingPushOutcome::kClosed:
          return Status::FailedPrecondition("queue closed");
        case SpscQueue<ShardBatch>::BlockingPushOutcome::kAborted:
          return first_error();
      }
      break;
    }
  }
  *accepted = true;
  pushed_ += weight;
  NoteDepth(depth);
  batch->clear();
  return Status::OK();
}

Status ThreadedDriver::OfferBatch(ShardBatch* batch) {
  WUM_RETURN_NOT_OK(CheckOfferable());
  if (batch->records.empty()) return Status::OK();
  StampOffer(batch);
  if (batch->records.size() <= kInlineDrainMaxRecords &&
      TryDrainInline(*batch)) {
    batch->clear();
    return Status::OK();
  }
  bool accepted = false;
  return Enqueue(batch, /*block=*/true, &accepted);
}

Status ThreadedDriver::TryOfferBatch(ShardBatch* batch, bool* accepted) {
  *accepted = false;
  WUM_RETURN_NOT_OK(CheckOfferable());
  if (batch->records.empty()) {
    *accepted = true;
    return Status::OK();
  }
  StampOffer(batch);
  return Enqueue(batch, /*block=*/false, accepted);
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

void ThreadedDriver::Close() {
  finished_ = true;
  queue_.Close();
}

Status ThreadedDriver::Finish() {
  if (!worker_.joinable()) {
    return Status::FailedPrecondition("driver already finished");
  }
  Close();
  worker_.join();
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (!first_error_.ok()) return first_error_;
  }
  return finish_status_;
}

}  // namespace wum
