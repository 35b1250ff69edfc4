#include "wum/clf/user_partitioner.h"

#include <gtest/gtest.h>

#include <memory>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"

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

Result<PartitionResult> Partition(
    const std::vector<LogRecord>& records, std::size_t num_pages,
    UserIdentity identity = UserIdentity::kClientIp) {
  UserPartitioner partitioner(num_pages, identity);
  for (const LogRecord& record : records) {
    WUM_RETURN_NOT_OK(partitioner.Add(ViewOf(record)));
  }
  return std::move(partitioner).Finish();
}

TEST(UserPartitionerTest, GroupsByIpSortedByIp) {
  std::vector<LogRecord> records = {
      PageRecord("10.0.0.2", 1, 100),
      PageRecord("10.0.0.1", 2, 50),
      PageRecord("10.0.0.2", 3, 200),
  };
  Result<PartitionResult> result = Partition(records, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->streams.size(), 2u);
  EXPECT_EQ(result->streams[0].user_key, "10.0.0.1");
  EXPECT_EQ(result->streams[1].user_key, "10.0.0.2");
  EXPECT_EQ(result->streams[1].requests.size(), 2u);
  EXPECT_EQ(result->streams[1].requests[0].page, 1u);
  EXPECT_EQ(result->streams[1].requests[1].page, 3u);
}

TEST(UserPartitionerTest, SortsWithinStreamByTimestamp) {
  std::vector<LogRecord> records = {
      PageRecord("ip", 1, 300),
      PageRecord("ip", 2, 100),
      PageRecord("ip", 3, 200),
  };
  Result<PartitionResult> result = Partition(records, 10);
  ASSERT_TRUE(result.ok());
  const auto& requests = result->streams[0].requests;
  EXPECT_EQ(requests[0].page, 2u);
  EXPECT_EQ(requests[1].page, 3u);
  EXPECT_EQ(requests[2].page, 1u);
}

TEST(UserPartitionerTest, StableForEqualTimestamps) {
  std::vector<LogRecord> records = {
      PageRecord("ip", 1, 100),
      PageRecord("ip", 2, 100),
      PageRecord("ip", 3, 100),
  };
  Result<PartitionResult> result = Partition(records, 10);
  ASSERT_TRUE(result.ok());
  const auto& requests = result->streams[0].requests;
  EXPECT_EQ(requests[0].page, 1u);
  EXPECT_EQ(requests[1].page, 2u);
  EXPECT_EQ(requests[2].page, 3u);
}

TEST(UserPartitionerTest, SkipsNonPageUrls) {
  std::vector<LogRecord> records = {PageRecord("ip", 1, 100)};
  LogRecord other;
  other.client_ip = "ip";
  other.url = "/favicon.ico";
  records.push_back(other);
  Result<PartitionResult> result = Partition(records, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->skipped_non_page_urls, 1u);
  EXPECT_EQ(result->streams[0].requests.size(), 1u);
}

TEST(UserPartitionerTest, RejectsOutOfTopologyPages) {
  std::vector<LogRecord> records = {PageRecord("ip", 99, 100)};
  Result<PartitionResult> result = Partition(records, 10);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(UserPartitionerTest, EmptyInput) {
  Result<PartitionResult> result = Partition({}, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->streams.empty());
  EXPECT_EQ(result->skipped_non_page_urls, 0u);
}

TEST(UserKeyForTest, IdentityModes) {
  EXPECT_EQ(UserKeyFor("1.2.3.4", "Mozilla", UserIdentity::kClientIp),
            "1.2.3.4");
  EXPECT_EQ(
      UserKeyFor("1.2.3.4", "Mozilla", UserIdentity::kClientIpAndUserAgent),
      std::string("1.2.3.4") + '\x1f' + "Mozilla");
}

TEST(UserKeyForTest, SplitUserKeyInvertsTheKey) {
  using Parts = std::pair<std::string_view, std::string_view>;
  for (const UserIdentity identity :
       {UserIdentity::kClientIp, UserIdentity::kClientIpAndUserAgent}) {
    const std::string key = UserKeyFor("1.2.3.4", "Mozilla", identity);
    EXPECT_EQ(SplitUserKey(key, identity),
              identity == UserIdentity::kClientIp
                  ? Parts("1.2.3.4", "")
                  : Parts("1.2.3.4", "Mozilla"));
    // The partitioner's hash is the key's hash: a restored user table
    // rehashes keys and must land where the live records did.
    EXPECT_EQ(UserKeyHash(key), UserHashFor("1.2.3.4", "Mozilla", identity));
  }
  // A separator inside the agent stays with the agent.
  const std::string key = UserKeyFor("1.2.3.4", "a\x1f" "b",
                                     UserIdentity::kClientIpAndUserAgent);
  EXPECT_EQ(SplitUserKey(key, UserIdentity::kClientIpAndUserAgent),
            Parts("1.2.3.4", "a\x1f" "b"));
}

TEST(UserPartitionerTest, UserAgentSeparatesProxyUsers) {
  auto with_agent = [](std::uint32_t page, TimeSeconds ts,
                       const std::string& agent) {
    LogRecord record = PageRecord("proxy", page, ts);
    record.user_agent = agent;
    return record;
  };
  std::vector<LogRecord> records = {
      with_agent(1, 100, "MSIE"),
      with_agent(2, 150, "Firefox"),
      with_agent(3, 200, "MSIE"),
  };
  Result<PartitionResult> by_ip = Partition(records, 10);
  ASSERT_TRUE(by_ip.ok());
  EXPECT_EQ(by_ip->streams.size(), 1u);

  Result<PartitionResult> by_ip_agent =
      Partition(records, 10, UserIdentity::kClientIpAndUserAgent);
  ASSERT_TRUE(by_ip_agent.ok());
  ASSERT_EQ(by_ip_agent->streams.size(), 2u);
  for (const UserStream& stream : by_ip_agent->streams) {
    const auto [ip, agent] =
        SplitUserKey(stream.user_key, UserIdentity::kClientIpAndUserAgent);
    EXPECT_EQ(ip, "proxy");
    if (agent == "MSIE") {
      EXPECT_EQ(stream.requests.size(), 2u);
    } else {
      EXPECT_EQ(agent, "Firefox");
      EXPECT_EQ(stream.requests.size(), 1u);
    }
  }
  EXPECT_EQ(by_ip->streams[0].user_key, "proxy");
}

// Add copies what it keeps: refs parsed from a buffer that is destroyed
// before the next Add (and before Finish) must leave intact keys behind.
// Under AddressSanitizer a retained view would be a use-after-free.
TEST(UserPartitionerTest, RetainsNoRefPastAdd) {
  const auto line = [](const std::string& ip, std::uint32_t page,
                       TimeSeconds timestamp, const std::string& agent) {
    LogRecord record = PageRecord(ip, page, timestamp);
    record.user_agent = agent;
    return FormatCombinedLogLine(record) + "\n";
  };
  UserPartitioner partitioner(10, UserIdentity::kClientIpAndUserAgent);
  ClfParser parser;
  std::vector<LogRecordRef> refs;
  auto first = std::make_unique<std::string>(
      line("10.0.0.1", 1, 100, "Mozilla/4.0 (compatible; MSIE 6.0)"));
  ASSERT_TRUE(parser.ParseChunk(*first, &refs).ok());
  for (const LogRecordRef& ref : refs) ASSERT_TRUE(partitioner.Add(ref).ok());
  first.reset();

  refs.clear();
  auto second = std::make_unique<std::string>(
      line("10.0.0.1", 2, 200, "Mozilla/4.0 (compatible; MSIE 6.0)") +
      line("10.0.0.2", 3, 150, "Opera/8.51 (Windows NT 5.1; U; en)"));
  ASSERT_TRUE(parser.ParseChunk(*second, &refs).ok());
  for (const LogRecordRef& ref : refs) ASSERT_TRUE(partitioner.Add(ref).ok());
  second.reset();

  const PartitionResult result = std::move(partitioner).Finish();
  ASSERT_EQ(result.streams.size(), 2u);
  EXPECT_EQ(result.streams[0].user_key,
            UserKeyFor("10.0.0.1", "Mozilla/4.0 (compatible; MSIE 6.0)",
                       UserIdentity::kClientIpAndUserAgent));
  ASSERT_EQ(result.streams[0].requests.size(), 2u);
  EXPECT_EQ(result.streams[0].requests[0].page, 1u);
  EXPECT_EQ(result.streams[0].requests[1].page, 2u);
  EXPECT_EQ(result.streams[1].user_key,
            UserKeyFor("10.0.0.2", "Opera/8.51 (Windows NT 5.1; U; en)",
                       UserIdentity::kClientIpAndUserAgent));
  EXPECT_EQ(result.streams[1].requests.size(), 1u);
}

}  // namespace
}  // namespace wum
