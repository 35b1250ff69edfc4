#include "wum/mine/path_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "wum/mine/options.h"
#include "wum/obs/metrics.h"
#include "wum/session/session.h"
#include "wum/stream/engine.h"
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

/// Exact occurrence counts of every contiguous n-gram of `length`.
std::map<std::vector<PageId>, std::uint64_t> ExactCounts(
    const std::vector<std::vector<PageId>>& sessions, std::size_t length) {
  std::map<std::vector<PageId>, std::uint64_t> counts;
  for (const std::vector<PageId>& pages : sessions) {
    for (std::size_t start = 0; start + length <= pages.size(); ++start) {
      ++counts[std::vector<PageId>(pages.begin() + start,
                                   pages.begin() + start + length)];
    }
  }
  return counts;
}

// Three shards with capacity 4 each evict constantly; their merged TopK
// must still bound every true count from both sides, and report shard
// sums in the JSON.
TEST(MergeTopKTest, MergedEstimatesBoundTheTrueCounts) {
  const MinerOptions options = Options(4, 2, 3, 4);
  std::vector<PathMiner> shards;
  for (int s = 0; s < 3; ++s) shards.emplace_back(options, nullptr, nullptr);
  std::vector<std::vector<PageId>> sessions;
  for (std::uint32_t i = 0; i < 90; ++i) {
    std::vector<PageId> pages;
    // A skewed mix: page 1 -> 2 is hot everywhere, the rest rotate.
    pages.push_back(1);
    pages.push_back(2);
    pages.push_back(static_cast<PageId>(3 + i % 5));
    pages.push_back(static_cast<PageId>(3 + (i * 7) % 11));
    shards[i % 3].AddSession(pages);
    sessions.push_back(std::move(pages));
  }
  const std::span<const PathMiner> miners(shards);
  for (std::size_t length = 2; length <= 3; ++length) {
    SCOPED_TRACE("length " + std::to_string(length));
    const auto exact = ExactCounts(sessions, length);
    const std::vector<PatternEstimate> merged =
        MergeTopK(miners, /*k=*/1000, length);
    ASSERT_FALSE(merged.empty());
    for (const PatternEstimate& estimate : merged) {
      const auto it = exact.find(estimate.path);
      const std::uint64_t truth = it == exact.end() ? 0 : it->second;
      EXPECT_GE(estimate.count, truth);
      EXPECT_LE(estimate.count - estimate.error, truth);
    }
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                               PatternOrderBefore));
  }
  // [1,2] occurs in every session: it must lead the merged answer.
  const std::vector<PatternEstimate> top = MergeTopK(miners, 1, 2);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].path, (std::vector<PageId>{1, 2}));
  EXPECT_GE(top[0].count, 90u);
  const std::string json = MergedPatternsJson(miners, 2, 2);
  EXPECT_EQ(json.rfind("{\"k\":2,\"length\":2,\"sessions\":90,\"paths\":450,"
                       "\"capacity\":4,\"patterns\":[",
                       0),
            0u)
      << json;
}

// Merging one miner changes nothing: per length it is the summary's own
// TopK, and the JSON is the miner's PatternsJson.
TEST(MergeTopKTest, SingleMinerMergesToItself) {
  PathMiner miner(Options(4, 2, 3, 4), nullptr, nullptr);
  for (std::uint32_t i = 0; i < 40; ++i) {
    miner.AddSession({1, 2, static_cast<PageId>(3 + i % 6), 1, 2});
  }
  const std::span<const PathMiner> one(&miner, 1);
  for (std::size_t length = 2; length <= 3; ++length) {
    EXPECT_EQ(MergeTopK(one, 10, length), miner.summary(length).TopK(10));
  }
  EXPECT_EQ(MergedPatternsJson(one, 3, 0), miner.PatternsJson(3, 0));
}

// The tie-break is the merged first-seen sequence: first_seen * shards +
// shard, minimised over the shards that track the path. Equal counts in
// two shards order by which shard saw its path first in its own stream.
TEST(MergeTopKTest, TiesBreakOnMergedFirstSeen) {
  const MinerOptions options = Options(4, 2, 2, 16);
  std::vector<PathMiner> shards;
  for (int s = 0; s < 2; ++s) shards.emplace_back(options, nullptr, nullptr);
  shards[0].AddSession({7, 8});  // first_seen 0 -> merged 0
  shards[1].AddSession({5, 6});  // first_seen 0 -> merged 1
  shards[1].AddSession({7, 8});  // first_seen 1 -> merged 3; min stays 0
  shards[0].AddSession({5, 6});  // first_seen 1 -> merged 2; min stays 1
  const std::vector<PatternEstimate> top = MergeTopK(shards, 2, 2);
  ASSERT_EQ(top.size(), 2u);
  // Not the path order: [7,8] wins on first-seen.
  EXPECT_EQ(top[0].path, (std::vector<PageId>{7, 8}));
  EXPECT_EQ(top[0].count, 2u);
  EXPECT_EQ(top[0].first_seen, 0u);
  EXPECT_EQ(top[1].path, (std::vector<PageId>{5, 6}));
  EXPECT_EQ(top[1].first_seen, 1u);
}

TEST(MiningSinkTest, StateRoundTripsThroughSerializeRestore) {
  const MinerOptions options = Options(4, 2, 2, 16);
  MiningSink original(2, options, nullptr, nullptr);
  for (int i = 0; i < 5; ++i) {
    original.AddSession(0, {1, 2, 3});
    original.AddSession(1, {2, 3, 4});
  }
  std::vector<std::string> frames;
  ASSERT_TRUE(original.SerializeState(&frames).ok());
  ASSERT_EQ(frames.size(), 4u);  // per shard: header + one length
  MiningSink restored(2, options, nullptr, nullptr);
  ASSERT_TRUE(restored.RestoreState(frames).ok());
  EXPECT_EQ(restored.PatternsJson(), original.PatternsJson());
  EXPECT_EQ(restored.sessions_seen(), 10u);
  // A different shard count is refused by frame count.
  MiningSink three(3, options, nullptr, nullptr);
  EXPECT_TRUE(three.RestoreState(frames).IsParseError());
}

/// Engine options for the live-mining tests: Smart-SRA over Figure 1.
EngineOptions SmartSraMining(const WebGraph* graph, std::size_t shards) {
  return EngineOptions()
      .set_num_shards(shards)
      .use_smart_sra(graph)
      .set_mining(MinerOptions{});
}

/// `users` users each walking P1 -> P13 -> P34 -> P23 `rounds` times,
/// 5000 s apart, so every walk is its own session.
std::vector<LogRecord> WalkRecords(int users, int rounds) {
  constexpr PageId kWalk[] = {0, 1, 4, 3};
  std::vector<LogRecord> records;
  for (int round = 0; round < rounds; ++round) {
    for (int u = 0; u < users; ++u) {
      for (int i = 0; i < 4; ++i) {
        LogRecord record;
        record.client_ip = "10.1." + std::to_string(u / 200) + "." +
                           std::to_string(u % 200);
        record.url = PageUrl(kWalk[i]);
        record.timestamp = round * 5000 + i * 30;
        records.push_back(std::move(record));
      }
    }
  }
  return records;
}

// Sessions are mined as they are delivered, so once Finish returns the
// mining.sessions counter matches the engine's emitted sessions exactly
// even though nothing queried the miner (45 is not a multiple of any
// hand-off batch size).
TEST(MiningEngineTest, SessionsCounterIsExactAfterFinish) {
  const WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      SmartSraMining(&graph, 1).set_metrics(&registry), &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  for (const LogRecord& record : WalkRecords(45, 1)) {
    ASSERT_TRUE((*engine)->Offer(record).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  const std::uint64_t emitted = (*engine)->TotalStats().sessions_emitted;
  ASSERT_EQ(emitted, 45u);
  std::uint64_t mined = 0;
  for (const auto& counter : registry.Snapshot().counters) {
    if (counter.name == "mining.sessions") mined = counter.value;
  }
  EXPECT_EQ(mined, emitted);
}

// A query thread merges the shards while four workers mine (the TSan
// witness for the per-shard miner locks); the final answer counts every
// walk.
TEST(MiningEngineTest, QueriesRunWhileShardsMine) {
  const WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(SmartSraMining(&graph, 4), &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  const MiningSink* mining = (*engine)->mining();
  std::atomic<bool> done{false};
  std::size_t queries = 0;
  std::thread query([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string json = mining->PatternsJson(5, 0);
      EXPECT_EQ(json.front(), '{');
      ++queries;
    }
  });
  const std::vector<LogRecord> records = WalkRecords(64, 6);
  std::vector<LogRecordRef> refs;
  for (const LogRecord& record : records) refs.push_back(ViewOf(record));
  for (std::size_t begin = 0; begin < refs.size(); begin += 256) {
    const std::size_t size = std::min<std::size_t>(256, refs.size() - begin);
    ASSERT_TRUE((*engine)
                    ->OfferBatch(std::span<const LogRecordRef>(
                        refs.data() + begin, size))
                    .ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  done.store(true, std::memory_order_relaxed);
  query.join();
  EXPECT_GT(queries, 0u);
  EXPECT_EQ(mining->sessions_seen(), 64u * 6u);
  EXPECT_EQ(mining->sessions_seen(), (*engine)->TotalStats().sessions_emitted);
  const std::vector<PatternEstimate> top = mining->TopK(1, 2);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].count, 64u * 6u);  // every walk starts with P1 -> P13
  EXPECT_EQ(top[0].error, 0u);
}

}  // namespace
}  // namespace wum::mine
