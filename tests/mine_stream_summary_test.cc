#include "wum/mine/stream_summary.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "wum/ckpt/codec.h"
#include "wum/common/random.h"

namespace wum::mine {
namespace {

/// Drives a summary the way PathMiner does: the sequence counter
/// advances only when Offer reports a new insertion.
class Feeder {
 public:
  explicit Feeder(StreamSummary* summary) : summary_(summary) {}
  void Offer(const std::vector<PageId>& path) {
    if (summary_->Offer(path, seq_)) ++seq_;
  }

 private:
  StreamSummary* summary_;
  std::uint64_t seq_ = 0;
};

TEST(PatternOrderBeforeTest, CountDescendingDominates) {
  const PatternEstimate high{{9, 9}, 5, 0, 100};
  const PatternEstimate low{{1, 1}, 4, 0, 0};
  EXPECT_TRUE(PatternOrderBefore(high, low));
  EXPECT_FALSE(PatternOrderBefore(low, high));
}

TEST(PatternOrderBeforeTest, FirstSeenBreaksCountTies) {
  const PatternEstimate older{{9, 9}, 5, 0, 1};
  const PatternEstimate newer{{1, 1}, 5, 0, 2};
  EXPECT_TRUE(PatternOrderBefore(older, newer));
  EXPECT_FALSE(PatternOrderBefore(newer, older));
}

TEST(PatternOrderBeforeTest, PathLexBreaksRemainingTies) {
  const PatternEstimate a{{1, 2}, 5, 0, 3};
  const PatternEstimate b{{1, 3}, 5, 0, 3};
  EXPECT_TRUE(PatternOrderBefore(a, b));
  EXPECT_FALSE(PatternOrderBefore(b, a));
  EXPECT_FALSE(PatternOrderBefore(a, a));
}

TEST(StreamSummaryTest, ExactWhenUnderCapacity) {
  StreamSummary summary(16, 0);
  Feeder feeder(&summary);
  feeder.Offer({1, 2});
  feeder.Offer({2, 3});
  feeder.Offer({1, 2});
  EXPECT_EQ(summary.paths_processed(), 3u);
  EXPECT_EQ(summary.tracked(), 2u);
  auto top = summary.TopK(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].path, (std::vector<PageId>{1, 2}));
  EXPECT_EQ(top[0].count, 2u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].path, (std::vector<PageId>{2, 3}));
  EXPECT_EQ(top[1].count, 1u);
}

TEST(StreamSummaryTest, EvictionInheritsMinimumEstimate) {
  StreamSummary summary(2, 0);
  Feeder feeder(&summary);
  for (int i = 0; i < 3; ++i) feeder.Offer({1});
  feeder.Offer({2});
  feeder.Offer({3});  // evicts [2] (min = 1): [3] count 2, error 1
  auto top = summary.TopK(3);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].path, (std::vector<PageId>{1}));
  EXPECT_EQ(top[0].count, 3u);
  EXPECT_EQ(top[1].path, (std::vector<PageId>{3}));
  EXPECT_EQ(top[1].count, 2u);
  EXPECT_EQ(top[1].error, 1u);
}

TEST(StreamSummaryTest, EvictsLongestResidentOfMinimumCount) {
  // Three paths tied at count 1: the victim must be the one that has
  // sat at the minimum count longest ([1], inserted first), not an
  // arbitrary map-order pick — this pins the deterministic choice.
  StreamSummary summary(3, 0);
  Feeder feeder(&summary);
  feeder.Offer({1});
  feeder.Offer({2});
  feeder.Offer({3});
  feeder.Offer({4});  // evicts [1]
  auto top = summary.TopK(4);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].path, (std::vector<PageId>{4}));  // count 2 (inherited)
  std::vector<std::vector<PageId>> paths;
  for (const auto& entry : top) paths.push_back(entry.path);
  EXPECT_EQ(paths, (std::vector<std::vector<PageId>>{{4}, {2}, {3}}));
}

TEST(StreamSummaryTest, TopKTruncatesAndOrders) {
  StreamSummary summary(16, 0);
  Feeder feeder(&summary);
  for (int i = 0; i < 5; ++i) feeder.Offer({1});
  for (int i = 0; i < 3; ++i) feeder.Offer({2});
  feeder.Offer({3});
  auto top = summary.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].path, (std::vector<PageId>{1}));
  EXPECT_EQ(top[1].path, (std::vector<PageId>{2}));
}

TEST(StreamSummaryTest, SpaceSavingGuaranteesOnRandomStream) {
  // SpaceSaving invariants against exact counts:
  //   estimate >= true count, estimate - error <= true count, and every
  //   path with true count > N/capacity is tracked.
  Rng rng(77);
  constexpr std::size_t kCapacity = 24;
  StreamSummary summary(kCapacity, 0);
  Feeder feeder(&summary);
  std::map<std::vector<PageId>, std::uint64_t> exact;
  for (int s = 0; s < 500; ++s) {
    std::vector<PageId> session;
    const std::size_t length = 2 + rng.NextBounded(6);
    for (std::size_t i = 0; i < length; ++i) {
      // Skewed page distribution so some paths are genuinely frequent.
      session.push_back(static_cast<PageId>(
          rng.NextWeighted({30, 20, 10, 5, 2, 1, 1, 1, 1, 1})));
    }
    for (std::size_t i = 0; i + 2 <= session.size(); ++i) {
      const std::vector<PageId> path{session[i], session[i + 1]};
      feeder.Offer(path);
      ++exact[path];
    }
  }
  const std::uint64_t n = summary.paths_processed();
  ASSERT_GT(n, 0u);
  const std::vector<PatternEstimate> tracked =
      summary.TopK(summary.tracked());
  std::map<std::vector<PageId>, PatternEstimate> tracked_map;
  for (const auto& entry : tracked) tracked_map[entry.path] = entry;
  for (const auto& [path, entry] : tracked_map) {
    const std::uint64_t true_count = exact.contains(path) ? exact.at(path) : 0;
    EXPECT_GE(entry.count, true_count);
    EXPECT_LE(entry.count - entry.error, true_count);
  }
  for (const auto& [path, true_count] : exact) {
    if (true_count > n / kCapacity) {
      EXPECT_TRUE(tracked_map.contains(path))
          << "frequent path lost (true count " << true_count << ")";
    }
  }
}

TEST(StreamSummaryTest, DecayHalvesCountsAndDropsZeros) {
  StreamSummary summary(8, 0);
  Feeder feeder(&summary);
  for (int i = 0; i < 4; ++i) feeder.Offer({1});
  feeder.Offer({2});  // count 1: halves to zero and drops
  EXPECT_EQ(summary.paths_processed(), 5u);
  summary.Decay();
  EXPECT_EQ(summary.decays(), 1u);
  EXPECT_EQ(summary.paths_processed(), 2u);
  auto top = summary.TopK(8);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].path, (std::vector<PageId>{1}));
  EXPECT_EQ(top[0].count, 2u);
}

TEST(StreamSummaryTest, WindowModeDecaysAutomatically) {
  StreamSummary summary(8, 4);
  Feeder feeder(&summary);
  for (int i = 0; i < 4; ++i) feeder.Offer({1});
  EXPECT_EQ(summary.decays(), 1u);
  auto top = summary.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].count, 2u);
  // The halved stream keeps decaying on the same cadence.
  for (int i = 0; i < 4; ++i) feeder.Offer({1});
  EXPECT_EQ(summary.decays(), 2u);
}

std::string SerializeToString(const StreamSummary& summary) {
  ckpt::Encoder encoder;
  summary.Serialize(&encoder);
  return encoder.Release();
}

TEST(StreamSummaryTest, SerializeRestoreRoundTrip) {
  // Build a summary that has seen evictions, snapshot it, and check the
  // restored copy is indistinguishable — same estimates now, and the
  // same evictions later (determinism under continued load).
  Rng rng(1234);
  StreamSummary original(8, 0);
  Feeder feeder(&original);
  for (int i = 0; i < 200; ++i) {
    feeder.Offer({static_cast<PageId>(rng.NextBounded(20)),
                  static_cast<PageId>(rng.NextBounded(20))});
  }
  const std::string snapshot = SerializeToString(original);

  StreamSummary restored(8, 0);
  ckpt::Decoder decoder(snapshot);
  ASSERT_TRUE(restored.Restore(&decoder).ok());
  ASSERT_TRUE(decoder.ExpectEnd().ok());
  EXPECT_EQ(restored.paths_processed(), original.paths_processed());
  EXPECT_EQ(restored.tracked(), original.tracked());
  EXPECT_EQ(restored.TopK(8), original.TopK(8));

  // Continue both with the identical suffix stream: every estimate —
  // including eviction-inherited errors — must stay equal.
  Feeder original_feeder(&original);
  Feeder restored_feeder(&restored);
  Rng suffix_rng(99);
  for (int i = 0; i < 200; ++i) {
    const std::vector<PageId> path{
        static_cast<PageId>(suffix_rng.NextBounded(20)),
        static_cast<PageId>(suffix_rng.NextBounded(20))};
    original_feeder.Offer(path);
    restored_feeder.Offer(path);
  }
  EXPECT_EQ(restored.TopK(8), original.TopK(8));
  EXPECT_EQ(restored.paths_processed(), original.paths_processed());
}

TEST(StreamSummaryTest, RestoreRejectsConfigMismatch) {
  StreamSummary original(8, 0);
  Feeder feeder(&original);
  feeder.Offer({1, 2});
  const std::string snapshot = SerializeToString(original);

  StreamSummary wrong_capacity(16, 0);
  ckpt::Decoder capacity_decoder(snapshot);
  EXPECT_TRUE(wrong_capacity.Restore(&capacity_decoder).IsInvalidArgument());

  StreamSummary wrong_window(8, 1024);
  ckpt::Decoder window_decoder(snapshot);
  EXPECT_TRUE(wrong_window.Restore(&window_decoder).IsInvalidArgument());
}

TEST(StreamSummaryTest, RestoreRejectsCorruptChainOrder) {
  // Serialized counts must be non-decreasing in chain order; a snapshot
  // violating that is corruption, not state.
  ckpt::Encoder encoder;
  encoder.PutUvarint(8);    // capacity
  encoder.PutUvarint(0);    // window
  encoder.PutUvarint(10);   // paths_processed
  encoder.PutUvarint(0);    // offers_since_decay
  encoder.PutUvarint(0);    // decays
  encoder.PutUvarint(2);    // tracked
  encoder.PutUvarint(5);    // count
  encoder.PutUvarint(0);    // error
  encoder.PutUvarint(0);    // first_seen
  encoder.PutString(std::string("\1\0\0\0", 4));
  encoder.PutUvarint(3);    // count < previous: out of order
  encoder.PutUvarint(0);
  encoder.PutUvarint(1);
  encoder.PutString(std::string("\2\0\0\0", 4));
  const std::string snapshot = encoder.Release();
  StreamSummary summary(8, 0);
  ckpt::Decoder decoder(snapshot);
  EXPECT_TRUE(summary.Restore(&decoder).IsParseError());
}

}  // namespace
}  // namespace wum::mine
