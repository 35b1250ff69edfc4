#include "wum/stream/threaded_driver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

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

/// Enqueues `record` as a batch of one.
Status OfferOne(ThreadedDriver* driver, const LogRecord& record) {
  ShardBatch batch;
  batch.Append(ViewOf(record), UserIdentity::kClientIp);
  return driver->OfferBatch(&batch);
}

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

TEST(SpscQueueTest, FifoOrder) {
  SpscQueue<int> queue(4);
  queue.Push(1);
  queue.Push(2);
  queue.Push(3);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
}

TEST(SpscQueueTest, CloseDrainsThenSignalsEnd) {
  SpscQueue<int> queue(4);
  queue.Push(7);
  queue.Close();
  EXPECT_EQ(queue.Pop(), 7);
  EXPECT_EQ(queue.Pop(), std::nullopt);
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
  while (auto item = queue.Pop()) {
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

  // Worker pops record 0 and parks inside the sink; record 1 then fills
  // the capacity-1 queue.
  ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 0)).ok());
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
// keeps the worker alive; on_discard reports records drained after a
// real (unhandled) death.
TEST(ThreadedDriverTest, HooksQuarantineAndReportDiscards) {
  FailingSink sink;  // fails on page 13 only
  std::vector<TimeSeconds> quarantined;
  DriverHooks hooks;
  hooks.on_record_error = [&quarantined](std::string_view,
                                         const ShardRecord& record,
                                         const Status& status) {
    EXPECT_TRUE(status.IsInternal());
    quarantined.push_back(record.timestamp);
    return true;  // handled: the driver must keep going
  };
  ThreadedDriver driver(&sink, 8, DriverMetrics{}, hooks);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", i == 7 ? 13 : 1, i)).ok());
  }
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(quarantined, (std::vector<TimeSeconds>{7}));
  EXPECT_EQ(sink.accepted.load(), 19);
  EXPECT_FALSE(driver.failed());
}

TEST(ThreadedDriverTest, UnhandledErrorDiscardsRemainderThroughHook) {
  GateThenFailSink sink;
  std::atomic<int> discarded{0};
  DriverHooks hooks;
  hooks.on_record_error = [](std::string_view, const ShardRecord&,
                             const Status&) {
    return false;  // unhandled: the sticky error stands
  };
  hooks.on_discard = [&discarded](std::string_view, const ShardRecord&,
                                  const Status& status) {
    EXPECT_TRUE(status.IsInternal());
    discarded.fetch_add(1);
  };
  {
    ThreadedDriver driver(&sink, 8, DriverMetrics{}, hooks);
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 0)).ok());
    sink.WaitEntered();
    // Queue up records the worker will only ever drain.
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 1)).ok());
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 2)).ok());
    sink.Release();
    EXPECT_TRUE(driver.Finish().IsInternal());
  }
  EXPECT_EQ(discarded.load(), 2);
}

// Regression: after a worker death WaitIdle returns on the sticky error
// while the worker may still be discarding queued records through
// on_discard. WaitDrained must block until every enqueued record has
// been handled, so a barrier over a dead shard (e.g. a checkpoint
// snapshotting the dead-letter queue) sees all of its quarantines.
TEST(ThreadedDriverTest, WaitDrainedOutlastsDiscardsAfterDeath) {
  GateThenFailSink sink;
  std::atomic<int> discarded{0};
  DriverHooks hooks;
  hooks.on_record_error = [](std::string_view, const ShardRecord&,
                             const Status&) {
    return false;  // unhandled: the worker dies on record 0
  };
  hooks.on_discard = [&discarded](std::string_view, const ShardRecord&,
                                  const Status& status) {
    EXPECT_TRUE(status.IsInternal());
    // Slow discards widen the window between WaitIdle's early return
    // and the queue actually being empty.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    discarded.fetch_add(1);
  };
  ThreadedDriver driver(&sink, 16, DriverMetrics{}, hooks);
  ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, 0)).ok());
  sink.WaitEntered();
  constexpr int kQueued = 10;
  for (int i = 1; i <= kQueued; ++i) {
    ASSERT_TRUE(OfferOne(&driver, PageRecord("ip", 1, i)).ok());
  }
  sink.Release();  // record 0 fails; the rest only ever drain
  EXPECT_TRUE(driver.WaitIdle().IsInternal());
  driver.WaitDrained();
  EXPECT_EQ(discarded.load(), kQueued);
  EXPECT_TRUE(driver.Finish().IsInternal());
}

TEST(ThreadedDriverTest, EndToEndStreamingSessionization) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  SessionizeSink sink(
      [&graph]() {
        return std::make_unique<IncrementalSmartSra>(&graph,
                                                     SmartSra::Options());
      },
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
