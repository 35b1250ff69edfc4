// StreamEngine lifecycle and failure semantics: option validation,
// sharded stats accounting, identity-keyed sessionization, error
// propagation (a sink failure stops every shard), and the
// double-Finish / use-after-Finish guards.

#include "wum/stream/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "wum/clf/log_filter.h"
#include "wum/obs/metrics.h"
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

/// Emits every request as its own single-page session immediately, so
/// sink errors surface mid-stream instead of only at Flush.
class EmitEverySessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }
};

/// Accepts `limit` sessions, then fails every call.
class FailAfterSink : public SessionSink {
 public:
  explicit FailAfterSink(std::uint64_t limit) : limit_(limit) {}

  Status Accept(const std::string&, Session) override {
    if (accepted_.load() >= limit_) return Status::Internal("sink full");
    accepted_.fetch_add(1);
    return Status::OK();
  }

  std::uint64_t accepted() const { return accepted_.load(); }

 private:
  std::uint64_t limit_;
  std::atomic<std::uint64_t> accepted_{0};
};

TEST(StreamEngineCreateTest, RejectsInvalidOptions) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;

  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_smart_sra(&graph),
                                   nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(EngineOptions(), &sink)
                  .status()
                  .IsInvalidArgument());  // no heuristic
  EXPECT_TRUE(StreamEngine::Create(
                  EngineOptions().use_smart_sra(&graph).set_num_shards(0),
                  &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(
                  EngineOptions().use_smart_sra(&graph).set_queue_capacity(0),
                  &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_smart_sra(nullptr),
                                   &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_custom(nullptr), &sink)
                  .status()
                  .IsInvalidArgument());
  // Time heuristics have no graph to derive the page bound from.
  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_duration(), &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(
                  EngineOptions().use_duration().set_num_pages(10), &sink)
                  .ok());
}

TEST(StreamEngineTest, SessionizesOneUserEndToEnd) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 1, 60)).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 4, 120)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  ASSERT_EQ(sessions.entries().size(), 1u);
  EXPECT_EQ(sessions.entries()[0].client_ip, "u");
  EXPECT_EQ(sessions.entries()[0].session.PageSequence(),
            (std::vector<PageId>{0, 1, 4}));
}

TEST(StreamEngineTest, StatsAccountForEveryRecordAcrossShards) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(4).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  constexpr int kUsers = 23;
  constexpr int kRequests = 7;
  for (int r = 0; r < kRequests; ++r) {
    for (int u = 0; u < kUsers; ++u) {
      ASSERT_TRUE(
          (*engine)
              ->Offer(PageRecord("10.0.0." + std::to_string(u), 0, r * 30))
              .ok());
    }
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.records_in, static_cast<std::uint64_t>(kUsers * kRequests));
  EXPECT_EQ(total.records_dropped, 0u);
  EXPECT_EQ(total.sessions_emitted, sessions.entries().size());
  EXPECT_GT(total.queue_high_watermark, 0u);

  // Per-shard counters sum to the totals, and every user's records
  // landed on exactly one shard (records_in per shard is a multiple of
  // kRequests).
  std::uint64_t sum_in = 0;
  for (const EngineStats& shard : (*engine)->ShardStats()) {
    EXPECT_EQ(shard.records_in % kRequests, 0u);
    sum_in += shard.records_in;
  }
  EXPECT_EQ(sum_in, total.records_in);
}

TEST(StreamEngineTest, IdentitySeparatesAgentsBehindOneProxy) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(4)
          .set_identity(UserIdentity::kClientIpAndUserAgent)
          .use_smart_sra(&graph),
      &sessions);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 3; ++i) {
    LogRecord a = PageRecord("proxy", 0, i * 60);
    a.user_agent = "firefox";
    LogRecord b = PageRecord("proxy", 0, i * 60);
    b.user_agent = "safari";
    ASSERT_TRUE((*engine)->Offer(a).ok());
    ASSERT_TRUE((*engine)->Offer(b).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  std::set<std::string> keys;
  for (const auto& entry : sessions.entries()) keys.insert(entry.client_ip);
  EXPECT_EQ(keys, (std::set<std::string>{std::string("proxy\x1f") + "firefox",
                                         std::string("proxy\x1f") +
                                             "safari"}));
}

TEST(StreamEngineTest, FilterChainDropsAreCounted) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .use_smart_sra(&graph)
          .add_filter([] { return std::make_unique<MethodFilter>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  LogRecord post = PageRecord("u", 0, 0);
  post.method = HttpMethod::kPost;
  ASSERT_TRUE((*engine)->Offer(post).ok());
  LogRecord non_page = PageRecord("u", 0, 10);
  non_page.url = "/favicon.ico";
  ASSERT_TRUE((*engine)->Offer(non_page).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 20)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.records_in, 3u);
  EXPECT_EQ(total.records_dropped, 2u);  // POST + non-page URL
  EXPECT_EQ(sessions.entries().size(), 1u);
}

TEST(StreamEngineTest, SinkFailureStopsAllShards) {
  WebGraph graph = MakeFigure1Topology();
  FailAfterSink sink(/*limit=*/1);
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(4)
          .set_queue_capacity(4)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &sink);
  ASSERT_TRUE(engine.ok());

  // Every record emits a session; after the first one the sink fails and
  // the shared emit path poisons every shard, so Offer must start
  // rejecting (the ingest path observes the failure).
  Status offer_status;
  for (int i = 0; i < 10000 && offer_status.ok(); ++i) {
    offer_status =
        (*engine)->Offer(PageRecord("10.0.0." + std::to_string(i % 64), 0, i));
  }
  EXPECT_TRUE(offer_status.IsInternal());
  EXPECT_TRUE((*engine)->Finish().IsInternal());
  // Nothing got through after the failure, on any shard.
  EXPECT_EQ(sink.accepted(), 1u);
}

TEST(StreamEngineTest, FinishGuards) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->Finish().IsFailedPrecondition());
  EXPECT_TRUE((*engine)->Offer(PageRecord("u", 1, 60)).IsFailedPrecondition());
}

TEST(StreamEngineCreateTest, UseHeuristicResolvesThroughRegistry) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;
  // Every registry name works through the generic setter.
  for (const std::string name :
       {"duration", "pagestay", "navigation", "smart-sra"}) {
    EXPECT_TRUE(StreamEngine::Create(
                    EngineOptions().use_graph(&graph).use_heuristic(name),
                    &sink)
                    .ok())
        << name;
  }
  // Unknown names surface the registry's NotFound (listing valid names).
  Status unknown = StreamEngine::Create(
                       EngineOptions().use_graph(&graph).use_heuristic("h9"),
                       &sink)
                       .status();
  EXPECT_TRUE(unknown.IsNotFound());
  EXPECT_NE(unknown.message().find("smart-sra"), std::string::npos);
}

// With a registry attached, the per-shard obs metrics must agree exactly
// with the legacy EngineStats snapshots — they count the same events.
TEST(StreamEngineTest, MetricsMatchEngineStats) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  obs::MetricRegistry registry;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(4)
          .set_metrics(&registry)
          .use_smart_sra(&graph)
          .add_filter([] { return std::make_unique<MethodFilter>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  for (int u = 0; u < 17; ++u) {
    const std::string ip = "10.0.0." + std::to_string(u);
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE((*engine)->Offer(PageRecord(ip, 0, r * 30)).ok());
    }
    LogRecord post = PageRecord(ip, 0, 300);
    post.method = HttpMethod::kPost;  // dropped by the filter
    ASSERT_TRUE((*engine)->Offer(post).ok());
    LogRecord non_page = PageRecord(ip, 0, 310);
    non_page.url = "/favicon.ico";  // skipped by the sessionize stage
    ASSERT_TRUE((*engine)->Offer(non_page).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const std::vector<EngineStats> shards = (*engine)->ShardStats();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string prefix = "engine.shard" + std::to_string(i) + ".";
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "records_in"),
              shards[i].records_in);
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "sessions_emitted"),
              shards[i].sessions_emitted);
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "blocked_enqueues"),
              shards[i].blocked_enqueues);
    const obs::MetricsSnapshot::GaugeValue* watermark =
        snapshot.FindGauge(prefix + "queue_high_watermark");
    ASSERT_NE(watermark, nullptr);
    EXPECT_EQ(watermark->value, shards[i].queue_high_watermark);
    // records_dropped is derived the same way EngineStats derives it.
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "records_filtered") +
                  snapshot.CounterOrZero(prefix + "skipped_non_page_urls"),
              shards[i].records_dropped);
    // The drain timer saw every record handed to the shard: everything
    // accepted except what the filters dropped on the producer.
    const obs::MetricsSnapshot::HistogramValue* drain =
        snapshot.FindHistogram(prefix + "drain_latency_us");
    ASSERT_NE(drain, nullptr);
    EXPECT_EQ(drain->count,
              snapshot.CounterOrZero(prefix + "records_in") -
                  snapshot.CounterOrZero(prefix + "records_filtered"));
  }
  const EngineStats total = (*engine)->TotalStats();
  std::uint64_t records_in_total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    records_in_total += snapshot.CounterOrZero(
        "engine.shard" + std::to_string(i) + ".records_in");
  }
  EXPECT_EQ(records_in_total, total.records_in);
  EXPECT_EQ(total.records_in, 17u * 7u);
  EXPECT_EQ(total.records_dropped, 17u * 2u);
}

// add_filter drops run on the producer: a dropped record is accepted
// (records_in) and counted in records_dropped, but never reaches the
// shard's sessionizer.
TEST(StreamEngineFilterTest, CountsDrops) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); })
          .add_filter([] { return std::make_unique<StatusFilter>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  LogRecord bad_record = PageRecord("ip", 2, 20);
  bad_record.status_code = 500;
  ASSERT_TRUE((*engine)->Offer(PageRecord("ip", 1, 10)).ok());
  ASSERT_TRUE((*engine)->Offer(bad_record).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.records_in, 2u);
  EXPECT_EQ(total.records_dropped, 1u);
  ASSERT_EQ(sessions.entries().size(), 1u);
  EXPECT_EQ(sessions.entries()[0].session.PageSequence(),
            (std::vector<PageId>{1}));
}

// Without set_metrics the engine registers nothing anywhere and the
// legacy stats still work — the disabled mode of the tentpole.
TEST(StreamEngineTest, NoRegistryMeansNoMetricsButStatsStillWork) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_EQ((*engine)->TotalStats().records_in, 1u);
}

TEST(StreamEngineTest, DestructorFinishesWithoutExplicitFinish) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  {
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
    // No Finish(): the destructor must drain, flush and join cleanly.
  }
  EXPECT_EQ(sessions.entries().size(), 1u);
}

}  // namespace
}  // namespace wum
