// Run delivery: each shard collects the sessions it closes and hands
// them to the caller's sink as one run at the end of every drained
// batch, or earlier when a run reaches its request bound. One shared log
// of sessionizer and sink calls shows where the runs begin and end.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

/// The run bound, in requests (kRunMaxRequests in engine.cc).
constexpr std::size_t kRunMaxRequests = 1024;

/// Calls in the order they happened: 'R' for a sessionizer OnRequest,
/// 'A' for a sink Accept, each with the request's timestamp.
struct CallLog {
  struct Call {
    char kind;
    TimeSeconds timestamp;
  };

  void Add(char kind, TimeSeconds timestamp) {
    std::lock_guard<std::mutex> lock(mutex);
    calls.push_back({kind, timestamp});
  }

  /// Lengths of the maximal stretches of `kind` calls, in order.
  std::vector<std::size_t> Stretches(char kind) const {
    std::vector<std::size_t> stretches;
    std::size_t length = 0;
    for (const Call& call : calls) {
      if (call.kind == kind) {
        ++length;
      } else if (length > 0) {
        stretches.push_back(length);
        length = 0;
      }
    }
    if (length > 0) stretches.push_back(length);
    return stretches;
  }

  std::mutex mutex;
  std::vector<Call> calls;
};

/// Emits every request as its own single-request session, logging the
/// request first.
class LoggingEmitEverySessionizer : public IncrementalUserSessionizer {
 public:
  explicit LoggingEmitEverySessionizer(CallLog* log) : log_(log) {}

  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    log_->Add('R', request.timestamp);
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }

 private:
  CallLog* log_;
};

class LoggingSink : public SessionSink {
 public:
  explicit LoggingSink(CallLog* log) : log_(log) {}

  Status Accept(const std::string&, Session session) override {
    log_->Add('A', session.requests.front().timestamp);
    return Status::OK();
  }

 private:
  CallLog* log_;
};

class EngineEmitRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions()
            .set_num_shards(1)
            .set_queue_capacity(4096)
            .set_num_pages(graph_.num_pages())
            .use_custom([this] {
              return std::make_unique<LoggingEmitEverySessionizer>(&log_);
            }),
        &sink_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).ValueOrDie();
  }

  /// Offers `count` page-0 records of one user, timestamps from `first`,
  /// as one batch.
  Status OfferBatchOf(std::size_t count, TimeSeconds first) {
    std::vector<LogRecord> records(count);
    std::vector<LogRecordRef> refs;
    for (std::size_t i = 0; i < count; ++i) {
      records[i].client_ip = "10.0.0.1";
      records[i].url = PageUrl(0);
      records[i].timestamp = first + static_cast<TimeSeconds>(i);
      refs.push_back(ViewOf(records[i]));
    }
    return engine_->OfferBatch(refs);
  }

  /// Every request reached the sink once, in request order.
  void ExpectDeliveredInOrder(std::size_t count) {
    std::vector<TimeSeconds> requested;
    std::vector<TimeSeconds> accepted;
    for (const CallLog::Call& call : log_.calls) {
      (call.kind == 'R' ? requested : accepted).push_back(call.timestamp);
    }
    EXPECT_EQ(requested.size(), count);
    EXPECT_EQ(accepted, requested);
  }

  WebGraph graph_ = MakeFigure1Topology();
  CallLog log_;
  LoggingSink sink_{&log_};
  std::unique_ptr<StreamEngine> engine_;
};

// A small batch's sessions all reach the sink after its last record is
// sessionized: the sink is called once per batch, not once per closing
// record.
TEST_F(EngineEmitRunTest, SmallBatchReachesTheSinkAfterItsLastRecord) {
  constexpr std::size_t kBatch = ThreadedDriver::kInlineDrainMaxRecords;
  ASSERT_TRUE(OfferBatchOf(kBatch, 100).ok());
  ASSERT_TRUE(OfferBatchOf(10, 1000).ok());
  ASSERT_TRUE(engine_->Finish().ok());

  EXPECT_EQ(log_.Stretches('R'), (std::vector<std::size_t>{kBatch, 10}));
  EXPECT_EQ(log_.Stretches('A'), (std::vector<std::size_t>{kBatch, 10}));
  EXPECT_EQ(log_.calls.front().kind, 'R');
  ExpectDeliveredInOrder(kBatch + 10);
  EXPECT_EQ(engine_->TotalStats().sessions_emitted, kBatch + 10);
}

// A batch that closes more than one run's worth of requests reaches the
// sink in runs of at most kRunMaxRequests requests, while it drains.
TEST_F(EngineEmitRunTest, LargeBatchReachesTheSinkInBoundedRuns) {
  constexpr std::size_t kBatch = 2 * kRunMaxRequests + 452;
  ASSERT_TRUE(OfferBatchOf(kBatch, 100).ok());
  ASSERT_TRUE(engine_->Finish().ok());

  const std::vector<std::size_t> runs = log_.Stretches('A');
  ASSERT_EQ(runs.size(), 3u);
  for (const std::size_t run : runs) EXPECT_LE(run, kRunMaxRequests);
  EXPECT_EQ(runs[0], kRunMaxRequests);
  EXPECT_EQ(runs[1], kRunMaxRequests);
  ExpectDeliveredInOrder(kBatch);
  EXPECT_EQ(engine_->TotalStats().sessions_emitted, kBatch);
}

}  // namespace
}  // namespace wum
