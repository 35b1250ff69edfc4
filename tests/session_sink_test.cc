#include "wum/stream/session_sink.h"

#include <gtest/gtest.h>

#include "wum/session/smart_sra.h"
#include "wum/stream/incremental_sessionizer.h"
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

/// Resolves `record` the way the engine's producer does and feeds it to
/// `sink`.
Status AcceptOne(SessionizeSink* sink, const LogRecord& record) {
  ShardBatch batch;
  batch.Append(ViewOf(record), UserIdentity::kClientIp);
  return sink->Accept(batch.KeyOf(batch.records[0]), batch.records[0]);
}

TEST(SessionizeSinkTest, EmitsSessionsPerIp) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  RuleSessionizeSink sink(SmartSraRule(&graph, SmartSra::Options()),
                          &sessions, graph.num_pages());
  // Two users interleaved.
  ASSERT_TRUE(AcceptOne(&sink, PageRecord("a", 0, 0)).ok());
  ASSERT_TRUE(AcceptOne(&sink, PageRecord("b", 5, 10)).ok());
  ASSERT_TRUE(AcceptOne(&sink, PageRecord("a", 1, 60)).ok());
  ASSERT_TRUE(AcceptOne(&sink, PageRecord("b", 3, 70)).ok());
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(sink.users(), 2u);
  ASSERT_EQ(sessions.entries().size(), 2u);
  for (const auto& entry : sessions.entries()) {
    if (entry.client_ip == "a") {
      EXPECT_EQ(entry.session.PageSequence(), (std::vector<PageId>{0, 1}));
    } else {
      EXPECT_EQ(entry.session.PageSequence(), (std::vector<PageId>{5, 3}));
    }
  }
  EXPECT_EQ(sink.sessions_emitted(), 2u);
}

TEST(SessionizeSinkTest, SkipsNonPageUrls) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  RuleSessionizeSink sink(SmartSraRule(&graph, SmartSra::Options()),
                          &sessions, graph.num_pages());
  LogRecord favicon;
  favicon.client_ip = "a";
  favicon.url = "/favicon.ico";
  ASSERT_TRUE(AcceptOne(&sink, favicon).ok());
  EXPECT_EQ(sink.skipped_non_page_urls(), 1u);
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_TRUE(sessions.entries().empty());
}

TEST(SessionizeSinkTest, RejectsOutOfOrderPerUser) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  RuleSessionizeSink sink(SmartSraRule(&graph, SmartSra::Options()),
                          &sessions, graph.num_pages());
  ASSERT_TRUE(AcceptOne(&sink, PageRecord("a", 0, 100)).ok());
  EXPECT_TRUE(AcceptOne(&sink, PageRecord("a", 1, 50)).IsInvalidArgument());
  // A different user at an older time is fine (ordering is per user).
  EXPECT_TRUE(AcceptOne(&sink, PageRecord("b", 1, 50)).ok());
}

TEST(SessionizeSinkTest, RejectsOutOfTopologyPages) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  RuleSessionizeSink sink(SmartSraRule(&graph, SmartSra::Options()),
                          &sessions, graph.num_pages());
  EXPECT_TRUE(AcceptOne(&sink, PageRecord("a", 77, 0)).IsInvalidArgument());
}

TEST(CallbackSessionSinkTest, ForwardsToCallback) {
  int calls = 0;
  CallbackSessionSink sink([&calls](const std::string& ip, Session session) {
    ++calls;
    EXPECT_EQ(ip, "x");
    EXPECT_EQ(session.size(), 1u);
    return Status::OK();
  });
  ASSERT_TRUE(sink.Accept("x", MakeSession({1}, {0})).ok());
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace wum
