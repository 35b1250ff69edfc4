#include "wum/clf/log_record.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "alloc_counter.h"

namespace wum {
namespace {

TEST(HttpMethodTest, Names) {
  EXPECT_EQ(HttpMethodToString(HttpMethod::kGet), "GET");
  EXPECT_EQ(HttpMethodToString(HttpMethod::kPost), "POST");
  EXPECT_EQ(HttpMethodToString(HttpMethod::kHead), "HEAD");
}

TEST(PageUrlTest, CanonicalForm) {
  EXPECT_EQ(PageUrl(0), "/pages/p0.html");
  EXPECT_EQ(PageUrl(42), "/pages/p42.html");
}

TEST(PageFromUrlTest, RoundTrip) {
  for (std::uint32_t page : {0u, 1u, 42u, 299u, 4294967295u}) {
    std::optional<std::uint32_t> back = PageFromUrl(PageUrl(page));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, page);
  }
}

TEST(PageFromUrlTest, RejectsNonCanonical) {
  EXPECT_FALSE(PageFromUrl("/index.html").has_value());
  EXPECT_FALSE(PageFromUrl("/pages/p.html").has_value());
  EXPECT_FALSE(PageFromUrl("/pages/p12").has_value());
  EXPECT_FALSE(PageFromUrl("pages/p12.html").has_value());
  EXPECT_FALSE(PageFromUrl("/pages/pxx.html").has_value());
  EXPECT_FALSE(PageFromUrl("/pages/p-1.html").has_value());
  EXPECT_FALSE(PageFromUrl("/pages/p+1.html").has_value());
  EXPECT_FALSE(PageFromUrl("").has_value());
}

TEST(PageFromUrlTest, RejectsOverflowingId) {
  EXPECT_FALSE(PageFromUrl("/pages/p4294967296.html").has_value());
  EXPECT_FALSE(PageFromUrl("/pages/p99999999999999999999.html").has_value());
}

// The producer resolves every kept record's URL on the offer path, so a
// non-canonical URL must be a cheap miss: no Status, no message copy.
TEST(PageFromUrlTest, MissIsAllocationFree) {
  // Longer than any small-string buffer, so a copied message would
  // have to reach the heap.
  const std::string asset = "/shuttle/missions/sts-71/images/KSC-95EC-0423.gif";
  const std::string bad_id = "/pages/p12345678901234567890123456789.html";
  const std::uint64_t before = testutil::AllocationCount();
  const bool asset_missed = !PageFromUrl(asset).has_value();
  const bool bad_id_missed = !PageFromUrl(bad_id).has_value();
  const bool empty_referrer_missed = !PageFromReferrer("").has_value();
  const bool external_referrer_missed =
      !PageFromReferrer("http://elsewhere.example/index.html").has_value();
  const std::uint64_t after = testutil::AllocationCount();
  EXPECT_EQ(after, before);
  EXPECT_TRUE(asset_missed);
  EXPECT_TRUE(bad_id_missed);
  EXPECT_TRUE(empty_referrer_missed);
  EXPECT_TRUE(external_referrer_missed);
}

TEST(AgentIpTest, DistinctForDistinctAgents) {
  std::set<std::string> ips;
  for (std::uint64_t agent = 0; agent < 2000; ++agent) {
    ips.insert(AgentIp(agent));
  }
  EXPECT_EQ(ips.size(), 2000u);
}

TEST(AgentIpTest, DottedQuadShape) {
  EXPECT_EQ(AgentIp(0), "10.0.0.1");
  EXPECT_EQ(AgentIp(1), "10.0.0.2");
  EXPECT_EQ(AgentIp(254), "10.0.1.1");
}

TEST(ReferrerUrlTest, RoundTripThroughPageFromReferrer) {
  for (std::uint32_t page : {0u, 42u, 299u}) {
    std::optional<std::uint32_t> back = PageFromReferrer(ReferrerUrl(page));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, page);
  }
}

TEST(PageFromReferrerTest, AcceptsBarePathAndHttps) {
  EXPECT_EQ(*PageFromReferrer("/pages/p7.html"), 7u);
  EXPECT_EQ(*PageFromReferrer("https://other.host/pages/p9.html"), 9u);
}

TEST(PageFromReferrerTest, RejectsExternalAndEmpty) {
  EXPECT_FALSE(PageFromReferrer("").has_value());
  EXPECT_FALSE(
      PageFromReferrer("http://elsewhere.example/index.html").has_value());
  EXPECT_FALSE(PageFromReferrer("http://hostonly.example").has_value());
  EXPECT_FALSE(PageFromReferrer("not a url").has_value());
}

TEST(LogRecordTest, DefaultConstructionIsAllocationFree) {
  // The protocol default ("HTTP/1.1") must fit every mainstream
  // std::string small-buffer: a default LogRecord never touches the heap.
  const std::uint64_t before = testutil::AllocationCount();
  {
    LogRecord record;
    EXPECT_EQ(record.protocol, kDefaultProtocol);
  }
  EXPECT_EQ(testutil::AllocationCount(), before);
}

TEST(LogRecordRefTest, ViewOfMaterializeRoundTrip) {
  LogRecord record;
  record.client_ip = "10.1.2.3";
  record.timestamp = 1136214245;
  record.method = HttpMethod::kPost;
  record.url = "/pages/p42.html";
  record.protocol = "HTTP/1.0";
  record.status_code = 304;
  record.bytes = -1;
  record.referrer = "http://www.site.example/pages/p7.html";
  record.user_agent = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)";
  const LogRecordRef ref = ViewOf(record);
  EXPECT_EQ(ref.client_ip, record.client_ip);
  EXPECT_EQ(ref.url, record.url);
  EXPECT_EQ(ref.Materialize(), record);
}

TEST(LogRecordTest, DefaultAndOrdering) {
  LogRecord a;
  a.client_ip = "10.0.0.1";
  a.timestamp = 100;
  LogRecord b = a;
  EXPECT_EQ(a, b);
  b.timestamp = 200;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace wum
