#include "wum/clf/log_filter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
/// Heap-allocation counter backing the allocation-free filter test: this
/// binary's global operator new counts every call.
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

LogRecord RecordFor(const std::string& url, int status = 200,
                    HttpMethod method = HttpMethod::kGet,
                    const std::string& ip = "10.0.0.1") {
  LogRecord record;
  record.client_ip = ip;
  record.url = url;
  record.status_code = status;
  record.method = method;
  return record;
}

TEST(ExtensionFilterTest, DropsDefaultResourceExtensions) {
  ExtensionFilter filter;
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/img/logo.gif"))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/style.css"))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/app.js"))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/pages/p1.html"))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/"))));
}

TEST(ExtensionFilterTest, CaseInsensitive) {
  ExtensionFilter filter;
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/LOGO.GIF"))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/photo.JpEg"))));
}

TEST(ExtensionFilterTest, IgnoresQueryString) {
  ExtensionFilter filter;
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/logo.png?v=2"))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/page.html?img=x.png"))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/images/NASA-logo.GIF?"))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/icons/sts.GIF?s=2&x=.html"))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/pages/p7.html?ref=a.gif"))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("?x.gif"))));
}

TEST(ExtensionFilterTest, ExtensionLongerThanPathIsKept) {
  ExtensionFilter filter({".jpeg"});
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("peg"))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor(""))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor(".JPEG"))));
}

// The streaming engine runs the filters on every offered record before
// it is copied, so Keep on a view must never touch the heap — including
// for paths longer than any small-string buffer and mixed-case ones.
TEST(ExtensionFilterTest, KeepOnAViewIsAllocationFree) {
  const ExtensionFilter filter;
  const std::string page = "/shuttle/missions/sts-71/pages/p1234.html";
  const std::string gif = "/shuttle/missions/sts-71/images/KSC-95EC-0423.GIF";
  const std::string query = "/history/apollo/images/footprint.Jpg?w=640&h=48";
  LogRecordRef ref;
  const std::uint64_t before = g_allocations.load();
  ref.url = page;
  const bool kept_page = filter.Keep(ref);
  ref.url = gif;
  const bool kept_gif = filter.Keep(ref);
  ref.url = query;
  const bool kept_query = filter.Keep(ref);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);
  EXPECT_TRUE(kept_page);
  EXPECT_FALSE(kept_gif);
  EXPECT_FALSE(kept_query);
}

TEST(ExtensionFilterTest, CustomExtensionList) {
  ExtensionFilter filter({".pdf"});
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/doc.pdf"))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/logo.gif"))));
}

TEST(StatusFilterTest, KeepsSuccessAnd304) {
  StatusFilter filter;
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/x", 200))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/x", 204))));
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/x", 304))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/x", 301))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/x", 404))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/x", 500))));
}

TEST(MethodFilterTest, KeepsOnlyGet) {
  MethodFilter filter;
  EXPECT_TRUE(filter.Keep(ViewOf(RecordFor("/x", 200, HttpMethod::kGet))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/x", 200, HttpMethod::kPost))));
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/x", 200, HttpMethod::kHead))));
}

TEST(RobotFilterTest, DropsRobotsTxtItself) {
  RobotFilter filter;
  EXPECT_FALSE(filter.Keep(ViewOf(RecordFor("/robots.txt"))));
}

TEST(RobotFilterTest, DropsClientsThatFetchedRobotsTxt) {
  std::vector<LogRecord> history = {
      RecordFor("/robots.txt", 200, HttpMethod::kGet, "6.6.6.6"),
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "10.0.0.1"),
  };
  RobotFilter filter;
  filter.ObserveForRobots(history);
  EXPECT_FALSE(filter.Keep(ViewOf(
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "6.6.6.6"))));
  EXPECT_TRUE(filter.Keep(ViewOf(
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "10.0.0.1"))));
}

TEST(RobotFilterTest, ObserveIsIdempotent) {
  std::vector<LogRecord> history = {
      RecordFor("/robots.txt", 200, HttpMethod::kGet, "6.6.6.6")};
  RobotFilter filter;
  filter.ObserveForRobots(history);
  filter.ObserveForRobots(history);
  EXPECT_FALSE(
      filter.Keep(ViewOf(RecordFor("/x", 200, HttpMethod::kGet, "6.6.6.6"))));
}

TEST(FilterChainTest, AppliesConjunction) {
  FilterChain chain = FilterChain::Standard();
  std::vector<LogRecord> records = {
      RecordFor("/pages/p1.html"),                          // kept
      RecordFor("/logo.gif"),                               // extension
      RecordFor("/pages/p2.html", 404),                     // status
      RecordFor("/pages/p3.html", 200, HttpMethod::kPost),  // method
  };
  std::vector<LogRecord> kept = chain.Apply(records);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].url, "/pages/p1.html");
}

TEST(FilterChainTest, StatsCountDropsPerFilter) {
  FilterChain chain = FilterChain::Standard();  // method, status, extension
  std::vector<LogRecord> records = {
      RecordFor("/a.html", 200, HttpMethod::kPost),
      RecordFor("/b.html", 500),
      RecordFor("/c.gif"),
      RecordFor("/d.gif"),
      RecordFor("/e.html"),
  };
  chain.Apply(records);
  ASSERT_EQ(chain.stats().size(), 3u);
  EXPECT_EQ(chain.stats()[0].name, "method");
  EXPECT_EQ(chain.stats()[0].dropped, 1u);
  EXPECT_EQ(chain.stats()[1].name, "status");
  EXPECT_EQ(chain.stats()[1].dropped, 1u);
  EXPECT_EQ(chain.stats()[2].name, "extension");
  EXPECT_EQ(chain.stats()[2].dropped, 2u);
}

TEST(FilterChainTest, EmptyChainKeepsEverything) {
  FilterChain chain;
  std::vector<LogRecord> records = {RecordFor("/x.gif", 500)};
  EXPECT_EQ(chain.Apply(records).size(), 1u);
}

TEST(FilterChainTest, OrderPreserved) {
  FilterChain chain = FilterChain::Standard();
  std::vector<LogRecord> records = {
      RecordFor("/pages/p2.html"),
      RecordFor("/pages/p1.html"),
  };
  std::vector<LogRecord> kept = chain.Apply(records);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].url, "/pages/p2.html");
  EXPECT_EQ(kept[1].url, "/pages/p1.html");
}

}  // namespace
}  // namespace wum
