// Bounded single-producer / single-consumer queue used by the threaded
// pipeline driver. Mutex + condvar implementation: simple, correct, and
// fast enough at batch granularity (the driver hands off vectors of
// records, so the mutex is taken once per batch, not once per record).

#ifndef WUM_STREAM_SPSC_QUEUE_H_
#define WUM_STREAM_SPSC_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace wum {

/// Blocking bounded queue with weighted items. Capacity is counted in
/// weight units (for the driver: records, so a batch of 64 records
/// consumes 64 units and a single record consumes 1 — watermark and
/// backpressure semantics are independent of how records are batched).
///
/// Admission rule: an item is accepted as soon as the queued weight is
/// below capacity, even if the item's own weight overshoots it. A
/// weight-1 item therefore sees exactly the classic "size < capacity"
/// bound, and an oversized batch can never deadlock against a smaller
/// capacity — the queue just transiently overfills by at most one item.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity) : capacity_(capacity) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Outcome of a non-blocking TryPush.
  enum class PushOutcome { kOk, kFull, kClosed };

  /// Outcome of a blocking PushUnless.
  enum class BlockingPushOutcome { kOk, kClosed, kAborted };

  /// Blocks until space is available. Returns false (dropping the item)
  /// if the queue was already closed. When `depth_after` is non-null it
  /// receives the queued weight right after insertion (watermark probes
  /// without a second lock acquisition).
  bool Push(T item, std::size_t weight = 1, std::size_t* depth_after = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return weight_ < capacity_ || closed_; });
    if (closed_) return false;
    weight_ += weight;
    items_.push_back(Entry{std::move(item), weight});
    if (depth_after != nullptr) *depth_after = weight_;
    not_empty_.notify_one();
    return true;
  }

  /// Blocking push that a third party can interrupt: waits until space
  /// is available, the queue closes, or `aborted()` turns true (whoever
  /// flips that condition must call WakeAll to rouse the waiter). The
  /// threaded driver uses this so a producer blocked on a full queue
  /// observes the worker's sticky error instead of waiting forever.
  /// `aborted` is invoked with the queue mutex held, so it must not
  /// touch the queue; a relaxed/acquire atomic read is the intended
  /// shape. The item is only moved from on kOk, so a caller keeps it
  /// across kClosed/kAborted.
  template <typename AbortFn>
  BlockingPushOutcome PushUnless(T&& item, const AbortFn& aborted,
                                 std::size_t weight = 1,
                                 std::size_t* depth_after = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this, &aborted] {
      return weight_ < capacity_ || closed_ || aborted();
    });
    if (closed_) return BlockingPushOutcome::kClosed;
    if (aborted()) return BlockingPushOutcome::kAborted;
    weight_ += weight;
    items_.push_back(Entry{std::move(item), weight});
    if (depth_after != nullptr) *depth_after = weight_;
    not_empty_.notify_one();
    return BlockingPushOutcome::kOk;
  }

  /// Wakes every blocked producer and consumer so they re-evaluate their
  /// predicates (pair with the `aborted` condition of PushUnless).
  void WakeAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Non-blocking push: kFull leaves the item with the caller — it is
  /// only moved from on kOk — so callers can retry with Push to block.
  /// kClosed drops it.
  PushOutcome TryPush(T&& item, std::size_t weight = 1,
                      std::size_t* depth_after = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return PushOutcome::kClosed;
    if (weight_ >= capacity_) return PushOutcome::kFull;
    weight_ += weight;
    items_.push_back(Entry{std::move(item), weight});
    if (depth_after != nullptr) *depth_after = weight_;
    not_empty_.notify_one();
    return PushOutcome::kOk;
  }

  /// Blocks until an item is queued (true) or the queue is closed and
  /// drained (false, end of stream), without taking the item: a consumer
  /// that must acquire something else before popping (the driver's
  /// drain mutex) waits here, then pops with TryPop.
  bool WaitNonEmpty() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    return !items_.empty();
  }

  /// Non-blocking pop: the front item, or nullopt when the queue is
  /// empty. The item's weight is released immediately (the consumer
  /// processes it outside the lock).
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    Entry entry = std::move(items_.front());
    items_.pop_front();
    weight_ -= entry.weight;
    not_full_.notify_one();
    return std::move(entry.item);
  }

  /// Producer signals end of stream (idempotent). Consumers drain the
  /// remaining items and then see WaitNonEmpty return false.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Number of queued items (batches, for the driver).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Total queued weight (records, for the driver).
  std::size_t weight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return weight_;
  }

 private:
  struct Entry {
    T item;
    std::size_t weight;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Entry> items_;
  std::size_t weight_ = 0;
  bool closed_ = false;
};

}  // namespace wum

#endif  // WUM_STREAM_SPSC_QUEUE_H_
