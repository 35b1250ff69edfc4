// The shard user table: per-user cost counted in heap allocations, the
// index's probe lengths on the hashes one shard actually sees, and
// checkpoint compatibility with shard state written before the table
// existed.

#include "wum/stream/user_table.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "wum/ckpt/checkpoint.h"
#include "wum/clf/user_partitioner.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/stream/incremental_time_sessionizers.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

/// Counts sessions and keeps nothing, so it allocates nothing.
class CountingSessionSink : public SessionSink {
 public:
  Status Accept(const std::string&, Session) override {
    ++sessions;
    return Status::OK();
  }
  std::uint64_t sessions = 0;
};

/// "10.a.b.c" for user `i`: short enough that no key string allocates.
std::string UserIp(std::uint32_t i) {
  return "10." + std::to_string((i >> 16) & 0xff) + "." +
         std::to_string((i >> 8) & 0xff) + "." + std::to_string(i & 0xff);
}

// A user costs one heap allocation — its open session's request buffer —
// plus the table's amortized doubling, not a node, a heap sessionizer
// and a key string apiece.
TEST(UserTableTest, FreshUsersCostOneAllocationEach) {
  constexpr std::uint32_t kUsers = 10000;
  WebGraph graph = MakeFigure1Topology();
  std::vector<LogRecord> records(kUsers);
  ShardBatch batch;
  for (std::uint32_t i = 0; i < kUsers; ++i) {
    records[i].client_ip = UserIp(i);
    records[i].url = PageUrl(0);
    records[i].timestamp = i;
    batch.Append(ViewOf(records[i]), UserIdentity::kClientIp);
  }
  CountingSessionSink sessions;
  RuleSessionizeSink sink(DurationRule(), &sessions, graph.num_pages());

  const std::uint64_t before = testutil::AllocationCount();
  for (const ShardRecord& record : batch.records) {
    ASSERT_TRUE(sink.Accept(batch.KeyOf(record), record).ok());
  }
  ASSERT_TRUE(sink.Finish().ok());
  const std::uint64_t allocations = testutil::AllocationCount() - before;

  EXPECT_EQ(sink.users(), kUsers);
  EXPECT_EQ(sessions.sessions, kUsers);
  EXPECT_LE(allocations, kUsers + 64);
}

// The shard was chosen by the hash's low bits (hash % num_shards), so
// every key a shard holds shares them; the index must still spread
// those keys.
TEST(UserTableTest, ShardLocalKeysKeepProbesShort) {
  constexpr std::size_t kUsers = 10000;
  for (const std::uint64_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    UserTable<int> table;
    for (std::uint32_t i = 0; table.size() < kUsers; ++i) {
      const std::string key = UserIp(i);
      const std::uint64_t hash = UserKeyHash(key);
      if (hash % shards != 0) continue;  // another shard's user
      const std::size_t slot = table.FindSlot(key, hash);
      ASSERT_EQ(table.IndexAt(slot), UserTable<int>::kNil);
      ASSERT_TRUE(table.Insert(slot, key, hash).ok());
      if (table.size() == 1000) {
        EXPECT_LE(table.MeanProbeLength(), 2.0);
      }
    }
    EXPECT_LE(table.MeanProbeLength(), 2.0);
    // Every key is found again at its own entry.
    for (std::uint32_t index = 0; index < table.size(); ++index) {
      const std::string key(table.KeyOf(index));
      EXPECT_EQ(table.IndexAt(table.FindSlot(key, UserKeyHash(key))), index);
    }
  }
}

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// tests/data/shard-0.state is a smart-sra shard checkpoint under the
// ip-ua identity, written before the user table existed (by
// `websra_sessionize --streaming --threads 1 --identity ip-ua
// --checkpoint-every-records 60` on `websra_simulate --agents 6
// --combined --seed 5`; epoch 2, six users with open candidates). The
// table restores it and writes it back byte for byte: frame order is
// first-seen order, as it was.
TEST(UserTableTest, RestoresAndReserializesOlderShardStateByteForByte) {
  const std::filesystem::path original =
      std::filesystem::path(WEBSRA_TEST_DATA_DIR) / "shard-0.state";
  Result<std::vector<std::string>> frames =
      ckpt::ReadFramedFile(original.string(), ckpt::kShardMagic);
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  ASSERT_GE(frames->size(), 2u);

  // Restore and serialize never consult the graph.
  WebGraph graph = MakeFigure1Topology();
  CountingSessionSink sessions;
  RuleSessionizeSink sink(SmartSraRule(&graph, SmartSra::Options()),
                          &sessions, graph.num_pages());
  ASSERT_TRUE(
      sink.RestoreState(std::span<const std::string>(*frames).subspan(1))
          .ok());
  EXPECT_EQ(sink.users(), 6u);

  // The engine's shard header frame, then the sink's frames again.
  std::vector<std::string> rewritten = {(*frames)[0]};
  ASSERT_TRUE(sink.SerializeState(&rewritten).ok());
  EXPECT_EQ(rewritten, *frames);
  const std::filesystem::path copy =
      std::filesystem::path(::testing::TempDir()) / "user_table_shard-0.state";
  ASSERT_TRUE(
      ckpt::WriteFramedFile(copy.string(), ckpt::kShardMagic, rewritten).ok());
  EXPECT_EQ(ReadBytes(copy), ReadBytes(original));
  std::filesystem::remove(copy);
}

}  // namespace
}  // namespace wum
