#include "wum/stream/threaded_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "wum/obs/metrics.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/stream/spsc_queue.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

LogRecord PageRecord(const std::string& ip, std::uint32_t page,
                     TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return record;
}

/// Offers `record` as a batch of one.
Status OfferOne(ThreadedDriver* driver, const LogRecord& record) {
  ShardBatch batch;
  batch.Append(ViewOf(record), UserIdentity::kClientIp);
  return driver->OfferBatch(&batch);
}

/// One batch of `count` page-1 records of user "ip", timestamped
/// first_timestamp, first_timestamp + 1, ...
ShardBatch MakeBatch(std::size_t count, TimeSeconds first_timestamp) {
  ShardBatch batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.Append(ViewOf(PageRecord("ip", 1, first_timestamp +
                                                static_cast<TimeSeconds>(i))),
                 UserIdentity::kClientIp);
  }
  return batch;
}

/// The smallest batch OfferBatch always queues for the worker — the way
/// to park the worker in a gated sink without parking the caller too.
constexpr std::size_t kAboveGate = ThreadedDriver::kInlineDrainMaxRecords + 1;

class CountingSink : public RecordSink {
 public:
  Status Accept(std::string_view, const ShardRecord&) override {
    ++accepted;
    return Status::OK();
  }
  Status Finish() override {
    finished = true;
    return Status::OK();
  }
  std::atomic<int> accepted{0};
  std::atomic<bool> finished{false};
};

class FailingSink : public RecordSink {
 public:
  Status Accept(std::string_view, const ShardRecord& record) override {
    if (record.page == 13) return Status::Internal("boom");
    ++accepted;
    return Status::OK();
  }
  Status Finish() override { return Status::OK(); }
  std::atomic<int> accepted{0};
};

TEST(ShardBatchTest, AppendResolvesKeyPageAndTimestamp) {
  LogRecord page = PageRecord("10.0.0.1", 7, 100);
  page.user_agent = "Mozilla/4.0";
  LogRecord asset = PageRecord("10.0.0.2", 0, 200);
  asset.url = "/images/logo.gif";
  ShardBatch batch;
  batch.Append(ViewOf(page), UserIdentity::kClientIp);
  batch.Append(ViewOf(page), UserIdentity::kClientIpAndUserAgent);
  batch.Append(ViewOf(asset), UserIdentity::kClientIp);
  ASSERT_EQ(batch.records.size(), 3u);
  EXPECT_EQ(batch.KeyOf(batch.records[0]), "10.0.0.1");
  EXPECT_EQ(batch.KeyOf(batch.records[1]),
            UserKeyFor(page.client_ip, page.user_agent,
                       UserIdentity::kClientIpAndUserAgent));
  EXPECT_EQ(batch.KeyOf(batch.records[2]), "10.0.0.2");
  EXPECT_EQ(batch.records[0].page, 7u);
  EXPECT_EQ(batch.records[0].timestamp, 100);
  // A non-canonical URL still travels, marked as not a page.
  EXPECT_EQ(batch.records[2].page, kNotAPage);
  EXPECT_EQ(batch.records[2].timestamp, 200);
  batch.clear();
  EXPECT_TRUE(batch.records.empty());
  EXPECT_TRUE(batch.keys.empty());
}

/// The consumer side as the driver's worker runs it: wait for an item
/// (nullopt once the queue is closed and drained), then take it.
std::optional<int> WaitAndPop(SpscQueue<int>& queue) {
  if (!queue.WaitNonEmpty()) return std::nullopt;
  return queue.TryPop();
}

TEST(SpscQueueTest, FifoOrder) {
  SpscQueue<int> queue(4);
  queue.Push(1);
  queue.Push(2);
  queue.Push(3);
  EXPECT_EQ(WaitAndPop(queue), 1);
  EXPECT_EQ(WaitAndPop(queue), 2);
  EXPECT_EQ(WaitAndPop(queue), 3);
  EXPECT_EQ(queue.TryPop(), std::nullopt);  // empty, not closed
}

TEST(SpscQueueTest, CloseDrainsThenSignalsEnd) {
  SpscQueue<int> queue(4);
  queue.Push(7);
  queue.Close();
  EXPECT_EQ(WaitAndPop(queue), 7);
  EXPECT_EQ(WaitAndPop(queue), std::nullopt);
  EXPECT_FALSE(queue.Push(8));  // closed
}

TEST(SpscQueueTest, BlockingHandoffAcrossThreads) {
  SpscQueue<int> queue(2);  // small capacity forces producer blocking
  constexpr int kItems = 1000;
  std::thread producer([&queue] {
    for (int i = 0; i < kItems; ++i) queue.Push(i);
    queue.Close();
  });
  int expected = 0;
  while (auto item = WaitAndPop(queue)) {
    EXPECT_EQ(*item, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(ThreadedDriverTest, DeliversAllRecordsThenFinishes) {
  CountingSink sink;
  ThreadedDriver driver(&sink, 16);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, i)).ok());
  }
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(sink.accepted.load(), 500);
  EXPECT_TRUE(sink.finished.load());
}

TEST(ThreadedDriverTest, OfferAfterFinishRejected) {
  CountingSink sink;
  ThreadedDriver driver(&sink);
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 0)).IsFailedPrecondition());
  EXPECT_TRUE(driver.Finish().IsFailedPrecondition());
}

TEST(ThreadedDriverTest, SinkErrorSurfacesAtFinish) {
  FailingSink sink;
  ThreadedDriver driver(&sink, 8);
  // The failing record is somewhere in the middle.
  for (int i = 0; i < 100; ++i) {
    Status status = OfferOne(&driver, PageRecord("ip", i == 50 ? 13 : 1, i));
    if (!status.ok()) break;  // error may surface early; that's fine
  }
  EXPECT_TRUE(driver.Finish().IsInternal());
}

TEST(ThreadedDriverTest, DestructorJoinsWithoutFinish) {
  CountingSink sink;
  {
    ThreadedDriver driver(&sink, 8);
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 0)).ok());
    // No Finish(): destructor must not hang or crash.
  }
  EXPECT_EQ(sink.accepted.load(), 1);
}

/// First Accept parks the worker until released, then fails with
/// Internal; later Accepts fail immediately. Lets a test hold the queue
/// full with the worker mid-record, then kill the worker on cue.
class GateThenFailSink : public RecordSink {
 public:
  Status Accept(std::string_view, const ShardRecord&) override {
    accepts.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex_);
    if (first_) {
      first_ = false;
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return Status::Internal("worker died");
  }
  Status Finish() override { return Status::OK(); }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

  /// Records that reached the sink.
  std::atomic<int> accepts{0};

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool first_ = true;
  bool entered_ = false;
  bool released_ = false;
};

// Regression: a producer blocked in Offer on a full queue whose worker
// just died must be woken with the sticky error — not left waiting for
// space forever, and not handed an OK for a record that will only ever
// be discarded.
TEST(ThreadedDriverTest, BlockedOfferObservesWorkerDeath) {
  GateThenFailSink sink;
  ThreadedDriver driver(&sink, /*queue_capacity=*/1);

  // Worker pops a batch above the inline gate and parks inside the sink
  // on its record 0; record 1 is then queued (the worker is mid-batch)
  // and fills the capacity-1 queue.
  ShardBatch parking = MakeBatch(kAboveGate, 0);
  ASSERT_TRUE(driver.OfferBatch(&parking).ok());
  sink.WaitEntered();
  ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 1)).ok());

  // A second producer thread blocks on the full queue.
  Status blocked_status;
  std::thread producer([&driver, &blocked_status] {
    blocked_status = OfferOne(&driver, PageRecord("ip", 1, 2));
  });
  while (driver.blocked_enqueues() == 0) std::this_thread::yield();

  // Kill the worker: record 0's Accept returns Internal. The blocked
  // producer must resolve with that error even though draining record 1
  // frees queue space.
  sink.Release();
  producer.join();
  EXPECT_TRUE(blocked_status.IsInternal()) << blocked_status.ToString();
  EXPECT_TRUE(driver.failed());
  EXPECT_TRUE(driver.first_error().IsInternal());
  EXPECT_TRUE(driver.Finish().IsInternal());
}

// DriverHooks::on_record_error returning true quarantines the record and
// keeps the worker alive; on_batch_drained reports every batch, the
// quarantined record's included.
TEST(ThreadedDriverTest, HooksQuarantineAndReportDiscards) {
  FailingSink sink;  // fails on page 13 only
  std::vector<TimeSeconds> quarantined;
  std::atomic<int> batches{0};
  DriverHooks hooks;
  hooks.on_record_error = [&quarantined](std::string_view,
                                         const ShardRecord& record,
                                         const Status& status) {
    EXPECT_TRUE(status.IsInternal());
    quarantined.push_back(record.timestamp);
    return true;  // handled: the driver must keep going
  };
  hooks.on_batch_drained = [&batches] { batches.fetch_add(1); };
  ThreadedDriver driver(&sink, 8, DriverMetrics{}, hooks);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", i == 7 ? 13 : 1, i)).ok());
  }
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(quarantined, (std::vector<TimeSeconds>{7}));
  EXPECT_EQ(sink.accepted.load(), 19);
  EXPECT_EQ(batches.load(), 20);
  EXPECT_FALSE(driver.failed());
}

// After an unhandled error (on_record_error returning false) the driver
// still drains — and reports through on_batch_drained — the rest of the
// failing batch and every queued batch, so the producer never wedges,
// but not one more record reaches the sink.
TEST(ThreadedDriverTest, UnhandledErrorDiscardsRemainderThroughHook) {
  GateThenFailSink sink;
  std::atomic<int> batches{0};
  DriverHooks hooks;
  hooks.on_record_error = [](std::string_view, const ShardRecord&,
                             const Status&) {
    return false;  // unhandled: the sticky error stands
  };
  hooks.on_batch_drained = [&batches] { batches.fetch_add(1); };
  {
    ThreadedDriver driver(&sink, 8, DriverMetrics{}, hooks);
    // The worker parks on record 0 of a batch above the inline gate.
    ShardBatch parking = MakeBatch(kAboveGate, 0);
    ASSERT_TRUE(driver.OfferBatch(&parking).ok());
    sink.WaitEntered();
    // Queue up records the worker will only ever drain.
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 1)).ok());
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 2)).ok());
    sink.Release();
    EXPECT_TRUE(driver.Finish().IsInternal());
  }
  // Only record 0 of the parking batch reached the sink; the parking
  // batch and the two queued ones all drained.
  EXPECT_EQ(sink.accepts.load(), 1);
  EXPECT_EQ(batches.load(), 3);
}

/// Records the timestamp and the calling thread of every Accept. When
/// gated, the first Accept parks until Release and then succeeds.
class RecordingSink : public RecordSink {
 public:
  explicit RecordingSink(bool gated = false) : gated_(gated) {}

  Status Accept(std::string_view, const ShardRecord& record) override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (gated_ && !entered_) {
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    timestamps_.push_back(record.timestamp);
    threads_.push_back(std::this_thread::get_id());
    return Status::OK();
  }
  Status Finish() override { return Status::OK(); }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  std::vector<TimeSeconds> timestamps() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return timestamps_;
  }
  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 private:
  const bool gated_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  std::vector<TimeSeconds> timestamps_;
  std::vector<std::thread::id> threads_;
};

/// Every entry of `threads` is `id`.
bool AllOn(const std::vector<std::thread::id>& threads, std::thread::id id) {
  return std::all_of(threads.begin(), threads.end(),
                     [id](std::thread::id thread) { return thread == id; });
}

// A batch at the gate into an idle driver drains on the caller's thread
// before OfferBatch returns, leaving nothing for WaitIdle to wait on.
TEST(ThreadedDriverTest, SmallBatchIntoIdleDriverDrainsOnCaller) {
  RecordingSink sink;
  obs::MetricRegistry registry;
  DriverMetrics metrics;
  metrics.inline_batches = registry.GetCounter("inline_batches");
  ThreadedDriver driver(&sink, 16, metrics);
  ShardBatch batch = MakeBatch(ThreadedDriver::kInlineDrainMaxRecords, 0);
  ASSERT_TRUE(driver.OfferBatch(&batch).ok());
  EXPECT_TRUE(batch.records.empty());  // cleared for reuse
  EXPECT_EQ(sink.timestamps().size(), ThreadedDriver::kInlineDrainMaxRecords);
  EXPECT_TRUE(AllOn(sink.threads(), std::this_thread::get_id()));
  EXPECT_TRUE(driver.WaitIdle().ok());
  EXPECT_EQ(driver.queue_high_watermark(), 0u);
  EXPECT_EQ(registry.Snapshot().CounterOrZero("inline_batches"), 1u);
  ASSERT_TRUE(driver.Finish().ok());
}

// A batch above the gate always drains on the worker, even when the
// driver is idle.
TEST(ThreadedDriverTest, BatchAboveGateDrainsOnWorker) {
  RecordingSink sink;
  ThreadedDriver driver(&sink, 1024);
  for (int round = 0; round < 3; ++round) {
    ShardBatch batch = MakeBatch(kAboveGate, round * 1000);
    ASSERT_TRUE(driver.OfferBatch(&batch).ok());
    ASSERT_TRUE(driver.WaitIdle().ok());
  }
  ASSERT_TRUE(driver.Finish().ok());
  const std::vector<std::thread::id> threads = sink.threads();
  ASSERT_EQ(threads.size(), 3 * kAboveGate);
  EXPECT_NE(threads[0], std::this_thread::get_id());
  EXPECT_TRUE(AllOn(threads, threads[0]));
  EXPECT_EQ(driver.queue_high_watermark(), kAboveGate);
}

// TryOfferBatch (the kShed path) never drains inline: its caller must
// never wait on the sink.
TEST(ThreadedDriverTest, TryOfferBatchNeverDrainsInline) {
  RecordingSink sink;
  ThreadedDriver driver(&sink, 16);
  for (int i = 0; i < 5; ++i) {
    ShardBatch batch = MakeBatch(1, i);
    bool accepted = false;
    ASSERT_TRUE(driver.TryOfferBatch(&batch, &accepted).ok());
    EXPECT_TRUE(accepted);
    EXPECT_TRUE(batch.records.empty());
    ASSERT_TRUE(driver.WaitIdle().ok());
  }
  ASSERT_TRUE(driver.Finish().ok());
  const std::vector<std::thread::id> threads = sink.threads();
  ASSERT_EQ(threads.size(), 5u);
  EXPECT_NE(threads[0], std::this_thread::get_id());
  EXPECT_TRUE(AllOn(threads, threads[0]));
}

// While the worker is parked mid-batch, small offers are queued behind
// it rather than overtaking it inline: the sink sees offer order.
TEST(ThreadedDriverTest, SmallOfferQueuesBehindBusyWorker) {
  RecordingSink sink(/*gated=*/true);
  ThreadedDriver driver(&sink, 1024);
  ShardBatch parking = MakeBatch(kAboveGate, 0);
  ASSERT_TRUE(driver.OfferBatch(&parking).ok());
  sink.WaitEntered();  // the worker holds record 0 of the parking batch
  TimeSeconds next = static_cast<TimeSeconds>(kAboveGate);
  for (int i = 0; i < 4; ++i) {
    ShardBatch small = MakeBatch(3, next);
    next += 3;
    ASSERT_TRUE(driver.OfferBatch(&small).ok());
  }
  EXPECT_EQ(driver.queue_depth(), 12u);  // all four queued, none inlined
  sink.Release();
  ASSERT_TRUE(driver.WaitIdle().ok());
  ASSERT_TRUE(driver.Finish().ok());

  std::vector<TimeSeconds> expected(static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<TimeSeconds>(i);
  }
  EXPECT_EQ(sink.timestamps(), expected);
  const std::vector<std::thread::id> threads = sink.threads();
  EXPECT_NE(threads.back(), std::this_thread::get_id());
  EXPECT_TRUE(AllOn(threads, threads[0]));
}

// Small and large batches interleave, so inline drains race the worker
// finishing the batches queued before them: every record still reaches
// the sink in offer order, each exactly once.
TEST(ThreadedDriverTest, MixedOfferSizesKeepFifoOrder) {
  RecordingSink sink;
  ThreadedDriver driver(&sink, 256);
  TimeSeconds next = 0;
  for (int i = 0; i < 2000; ++i) {
    // Sizes cycle through 1..130, straddling the inline gate.
    const std::size_t size = 1 + static_cast<std::size_t>(i * 37) % 130;
    ShardBatch batch = MakeBatch(size, next);
    next += static_cast<TimeSeconds>(size);
    ASSERT_TRUE(driver.OfferBatch(&batch).ok());
  }
  ASSERT_TRUE(driver.Finish().ok());
  const std::vector<TimeSeconds> timestamps = sink.timestamps();
  ASSERT_EQ(timestamps.size(), static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    ASSERT_EQ(timestamps[i], static_cast<TimeSeconds>(i));
  }
}

// A sink error inside an inline drain becomes the sticky error: the call
// that drained returns OK (its records were handled), the next call and
// Finish return the error.
TEST(ThreadedDriverTest, InlineSinkErrorSurfacesOnNextCall) {
  FailingSink sink;  // fails on page 13
  ThreadedDriver driver(&sink, 16);
  ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 0)).ok());
  EXPECT_TRUE(OfferOne(&driver, PageRecord("ip", 13, 1)).ok());
  EXPECT_TRUE(driver.failed());
  EXPECT_TRUE(driver.first_error().IsInternal());
  EXPECT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 2)).IsInternal());
  EXPECT_TRUE(driver.WaitIdle().IsInternal());
  EXPECT_TRUE(driver.Finish().IsInternal());
  EXPECT_EQ(sink.accepted.load(), 1);
}

TEST(ThreadedDriverTest, EndToEndStreamingSessionization) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  RuleSessionizeSink sink(SmartSraRule(&graph, SmartSra::Options()),
                          &sessions, graph.num_pages());
  ThreadedDriver driver(&sink, 4);
  ASSERT_TRUE(OfferOne(&driver, PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE(OfferOne(&driver, PageRecord("u", 1, 60)).ok());
  ASSERT_TRUE(OfferOne(&driver, PageRecord("u", 4, 120)).ok());
  ASSERT_TRUE(driver.Finish().ok());
  ASSERT_EQ(sessions.entries().size(), 1u);
  EXPECT_EQ(sessions.entries()[0].session.PageSequence(),
            (std::vector<PageId>{0, 1, 4}));
}

}  // namespace
}  // namespace wum
