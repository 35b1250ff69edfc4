#include "wum/clf/user_partitioner.h"

#include <gtest/gtest.h>

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

TEST(UserPartitionerTest, GroupsByIpSortedByIp) {
  std::vector<LogRecord> records = {
      PageRecord("10.0.0.2", 1, 100),
      PageRecord("10.0.0.1", 2, 50),
      PageRecord("10.0.0.2", 3, 200),
  };
  Result<PartitionResult> result = PartitionByUser(records, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->streams.size(), 2u);
  EXPECT_EQ(result->streams[0].client_ip, "10.0.0.1");
  EXPECT_EQ(result->streams[1].client_ip, "10.0.0.2");
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
  Result<PartitionResult> result = PartitionByUser(records, 10);
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
  Result<PartitionResult> result = PartitionByUser(records, 10);
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
  Result<PartitionResult> result = PartitionByUser(records, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->skipped_non_page_urls, 1u);
  EXPECT_EQ(result->streams[0].requests.size(), 1u);
}

TEST(UserPartitionerTest, RejectsOutOfTopologyPages) {
  std::vector<LogRecord> records = {PageRecord("ip", 99, 100)};
  Result<PartitionResult> result = PartitionByUser(records, 10);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(UserPartitionerTest, EmptyInput) {
  Result<PartitionResult> result = PartitionByUser({}, 10);
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
  Result<PartitionResult> by_ip = PartitionByUser(records, 10);
  ASSERT_TRUE(by_ip.ok());
  EXPECT_EQ(by_ip->streams.size(), 1u);

  Result<PartitionResult> by_ip_agent =
      PartitionByUser(records, 10, UserIdentity::kClientIpAndUserAgent);
  ASSERT_TRUE(by_ip_agent.ok());
  ASSERT_EQ(by_ip_agent->streams.size(), 2u);
  for (const UserStream& stream : by_ip_agent->streams) {
    EXPECT_EQ(stream.client_ip, "proxy");
    EXPECT_FALSE(stream.user_agent.empty());
    if (stream.user_agent == "MSIE") {
      EXPECT_EQ(stream.requests.size(), 2u);
    } else {
      EXPECT_EQ(stream.user_agent, "Firefox");
      EXPECT_EQ(stream.requests.size(), 1u);
    }
  }
}

}  // namespace
}  // namespace wum
