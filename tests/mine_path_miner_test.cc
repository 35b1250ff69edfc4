#include "wum/mine/path_miner.h"

#include <gtest/gtest.h>

#include <vector>

#include "wum/mine/options.h"
#include "wum/session/session.h"
#include "wum/stream/session_sink.h"
#include "wum/topology/site_generator.h"
#include "wum/topology/web_graph.h"

namespace wum::mine {
namespace {

MinerOptions Options(std::size_t top_k, std::size_t min_length,
                     std::size_t max_length, std::size_t capacity) {
  MinerOptions options;
  options.top_k = top_k;
  options.min_length = min_length;
  options.max_length = max_length;
  options.capacity = capacity;
  return options;
}

TEST(ValidateMinerOptionsTest, RejectsBadConfigurations) {
  EXPECT_TRUE(ValidateMinerOptions(MinerOptions{}).ok());
  EXPECT_FALSE(ValidateMinerOptions(Options(0, 2, 3, 16)).ok());
  EXPECT_FALSE(ValidateMinerOptions(Options(4, 0, 3, 16)).ok());
  EXPECT_FALSE(ValidateMinerOptions(Options(4, 3, 2, 16)).ok());
  EXPECT_FALSE(ValidateMinerOptions(Options(8, 2, 3, 4)).ok());
  MinerOptions small_window = Options(4, 2, 3, 16);
  small_window.window_paths = 8;  // smaller than capacity
  EXPECT_FALSE(ValidateMinerOptions(small_window).ok());
  MinerOptions no_batch = Options(4, 2, 3, 16);
  no_batch.batch_sessions = 0;
  EXPECT_FALSE(ValidateMinerOptions(no_batch).ok());
}

TEST(PathMinerTest, CountsNgramsPerConfiguredLength) {
  PathMiner miner(Options(10, 2, 3, 64), nullptr, nullptr);
  miner.AddSession({1, 2, 3});  // pairs [1,2] [2,3]; triple [1,2,3]
  miner.AddSession({1, 2});     // pair [1,2]; too short for a triple
  miner.AddSession({4});        // too short for anything
  EXPECT_EQ(miner.sessions_seen(), 3u);
  EXPECT_EQ(miner.paths_processed(), 4u);

  auto pairs = miner.TopK(10, 2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].path, (std::vector<PageId>{1, 2}));
  EXPECT_EQ(pairs[0].count, 2u);
  EXPECT_EQ(pairs[1].path, (std::vector<PageId>{2, 3}));

  auto triples = miner.TopK(10, 3);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].path, (std::vector<PageId>{1, 2, 3}));

  // length 0 merges both summaries under the global order.
  auto merged = miner.TopK(10);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].path, (std::vector<PageId>{1, 2}));
}

TEST(PathMinerTest, TopologyInvalidPathsAreRejected) {
  // Figure 1 site: 0->1, 0->2, 1->4, 1->5, 2->3, 4->3, 5->3.
  const WebGraph graph = MakeFigure1Topology();
  PathMiner miner(Options(10, 2, 3, 64), &graph, nullptr);
  // 0->1 and 1->4 are links; 4->0 is not: the pair [4,0] and every
  // triple containing that hop must be discarded, the rest counted.
  miner.AddSession({0, 1, 4, 0});
  auto pairs = miner.TopK(10, 2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].path, (std::vector<PageId>{0, 1}));
  EXPECT_EQ(pairs[1].path, (std::vector<PageId>{1, 4}));
  auto triples = miner.TopK(10, 3);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].path, (std::vector<PageId>{0, 1, 4}));
}

TEST(PathMinerTest, PatternsJsonShapeIsDeterministic) {
  PathMiner miner(Options(2, 2, 2, 16), nullptr, nullptr);
  miner.AddSession({1, 2, 3});
  miner.AddSession({1, 2});
  EXPECT_EQ(miner.PatternsJson(),
            "{\"k\":2,\"length\":0,\"sessions\":2,\"paths\":3,"
            "\"capacity\":16,\"patterns\":["
            "{\"path\":[1,2],\"count\":2,\"error\":0},"
            "{\"path\":[2,3],\"count\":1,\"error\":0}]}");
}

TEST(PathMinerTest, SerializeRestoreRoundTrip) {
  const MinerOptions options = Options(4, 2, 3, 16);
  PathMiner original(options, nullptr, nullptr);
  for (int i = 0; i < 10; ++i) {
    original.AddSession({1, 2, 3, 4});
    original.AddSession({2, 3});
  }
  std::vector<std::string> frames;
  ASSERT_TRUE(original.SerializeState(&frames).ok());

  PathMiner restored(options, nullptr, nullptr);
  ASSERT_TRUE(restored.RestoreState(frames).ok());
  EXPECT_EQ(restored.sessions_seen(), original.sessions_seen());
  EXPECT_EQ(restored.paths_processed(), original.paths_processed());
  EXPECT_EQ(restored.PatternsJson(), original.PatternsJson());

  // Diverging configuration must be refused.
  PathMiner wrong_config(Options(4, 2, 2, 16), nullptr, nullptr);
  EXPECT_FALSE(wrong_config.RestoreState(frames).ok());
}

TEST(MiningSinkTest, ForwardsDownstreamAndCounts) {
  CollectingSessionSink downstream;
  MinerOptions options = Options(10, 2, 3, 64);
  options.batch_sessions = 2;
  MiningSink sink(&downstream, options, nullptr, nullptr);
  ASSERT_TRUE(sink.Accept("ip", MakeSession({1, 2, 3}, {0, 1, 2})).ok());
  ASSERT_TRUE(sink.Accept("ip", MakeSession({1, 2}, {5, 6})).ok());
  EXPECT_EQ(downstream.entries().size(), 2u);
  EXPECT_EQ(sink.sessions_seen(), 2u);
  auto pairs = sink.TopK(10, 2);
  ASSERT_GE(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].path, (std::vector<PageId>{1, 2}));
  EXPECT_EQ(pairs[0].count, 2u);
}

TEST(MiningSinkTest, QueriesFlushThePendingBatch) {
  // batch_sessions larger than the session count: without the implicit
  // flush a query would see nothing.
  MinerOptions options = Options(10, 2, 2, 64);
  options.batch_sessions = 100;
  MiningSink sink(nullptr, options, nullptr, nullptr);
  ASSERT_TRUE(sink.Accept("ip", MakeSession({1, 2}, {0, 1})).ok());
  EXPECT_EQ(sink.sessions_seen(), 1u);
  EXPECT_EQ(sink.TopK(1, 2).size(), 1u);
}

TEST(MiningSinkTest, FailingDownstreamSkipsMining) {
  // A sink that refuses the session: the failure must propagate and the
  // session must not be counted, so a retrying caller cannot inflate
  // the estimates by re-offering.
  class RefusingSink : public SessionSink {
   public:
    Status Accept(const std::string&, Session) override {
      return Status::IoError("downstream refused");
    }
  };
  RefusingSink downstream;
  MiningSink sink(&downstream, Options(10, 2, 2, 64), nullptr, nullptr);
  EXPECT_TRUE(sink.Accept("ip", MakeSession({1, 2}, {0, 1})).IsIoError());
  EXPECT_EQ(sink.sessions_seen(), 0u);
  EXPECT_TRUE(sink.TopK(10, 2).empty());
}

TEST(MiningSinkTest, NullDownstreamIsFine) {
  MiningSink sink(nullptr, Options(10, 2, 2, 64), nullptr, nullptr);
  EXPECT_TRUE(sink.Accept("ip", MakeSession({1, 2}, {0, 1})).ok());
  EXPECT_EQ(sink.sessions_seen(), 1u);
}

TEST(MiningSinkTest, StateRoundTripsThroughSerializeRestore) {
  const MinerOptions options = Options(4, 2, 2, 16);
  MiningSink original(nullptr, options, nullptr, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(original.Accept("ip", MakeSession({1, 2, 3}, {0, 1, 2})).ok());
  }
  std::vector<std::string> frames;
  ASSERT_TRUE(original.SerializeState(&frames).ok());
  MiningSink restored(nullptr, options, nullptr, nullptr);
  ASSERT_TRUE(restored.RestoreState(frames).ok());
  EXPECT_EQ(restored.PatternsJson(), original.PatternsJson());
}

}  // namespace
}  // namespace wum::mine
