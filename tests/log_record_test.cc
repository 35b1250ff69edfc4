#include "wum/clf/log_record.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>

namespace {
/// Heap-allocation counter backing the allocation-free contract tests:
/// this binary's global operator new counts every call.
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

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
    Result<std::uint32_t> back = PageFromUrl(PageUrl(page));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, page);
  }
}

TEST(PageFromUrlTest, RejectsNonCanonical) {
  EXPECT_TRUE(PageFromUrl("/index.html").status().IsNotFound());
  EXPECT_TRUE(PageFromUrl("/pages/p.html").status().IsNotFound());
  EXPECT_TRUE(PageFromUrl("/pages/p12").status().IsNotFound());
  EXPECT_TRUE(PageFromUrl("pages/p12.html").status().IsNotFound());
  EXPECT_TRUE(PageFromUrl("/pages/pxx.html").status().IsParseError());
  EXPECT_TRUE(PageFromUrl("").status().IsNotFound());
}

TEST(PageFromUrlTest, RejectsOverflowingId) {
  EXPECT_TRUE(PageFromUrl("/pages/p4294967296.html").status().IsOutOfRange());
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
    Result<std::uint32_t> back = PageFromReferrer(ReferrerUrl(page));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, page);
  }
}

TEST(PageFromReferrerTest, AcceptsBarePathAndHttps) {
  EXPECT_EQ(*PageFromReferrer("/pages/p7.html"), 7u);
  EXPECT_EQ(*PageFromReferrer("https://other.host/pages/p9.html"), 9u);
}

TEST(PageFromReferrerTest, RejectsExternalAndEmpty) {
  EXPECT_TRUE(PageFromReferrer("").status().IsNotFound());
  EXPECT_TRUE(PageFromReferrer("http://elsewhere.example/index.html")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(PageFromReferrer("http://hostonly.example").status().IsNotFound());
  EXPECT_TRUE(PageFromReferrer("not a url").status().IsNotFound());
}

TEST(LogRecordTest, DefaultConstructionIsAllocationFree) {
  // The protocol default ("HTTP/1.1") must fit every mainstream
  // std::string small-buffer: a default LogRecord never touches the heap.
  const std::uint64_t before = g_allocations.load();
  {
    LogRecord record;
    EXPECT_EQ(record.protocol, kDefaultProtocol);
  }
  EXPECT_EQ(g_allocations.load(), before);
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
