#include "wum/clf/log_filter.h"

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "wum/common/string_util.h"

namespace wum {
namespace {

/// The records of `records` that `chain` keeps, in order.
std::vector<LogRecord> KeptBy(FilterChain* chain,
                              const std::vector<LogRecord>& records) {
  std::vector<LogRecord> kept;
  for (const LogRecord& record : records) {
    if (chain->Keep(ViewOf(record))) kept.push_back(record);
  }
  return kept;
}

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
  const std::uint64_t before = testutil::AllocationCount();
  ref.url = page;
  const bool kept_page = filter.Keep(ref);
  ref.url = gif;
  const bool kept_gif = filter.Keep(ref);
  ref.url = query;
  const bool kept_query = filter.Keep(ref);
  const std::uint64_t after = testutil::AllocationCount();
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

/// The filter's contract spelled out naively: strip the query string,
/// lowercase path and extensions, and drop on any EndsWith match.
bool OracleKeep(const std::vector<std::string>& extensions,
                std::string_view url) {
  const std::string path = AsciiToLower(url.substr(0, url.find('?')));
  for (const std::string& extension : extensions) {
    if (EndsWith(path, AsciiToLower(extension))) return false;
  }
  return true;
}

// The bucketed filter against the oracle, over lists with an empty
// extension, dot-less and multi-dot ones, upper case and duplicates,
// and URLs with query strings, empty paths and paths shorter than the
// extension.
TEST(ExtensionFilterTest, MatchesNaiveSuffixOracle) {
  const std::vector<std::vector<std::string>> lists = {
      {".gif", ".jpg", ".jpeg", ".png", ".ico", ".css", ".js", ".swf",
       ".bmp"},
      {},
      {""},
      {".css", ""},
      {"gif"},
      {".tar.gz", ".GZ", "z"},
      {".HTML", "L", "ml", ".Gif"},
      {".css", ".CSS", ".css"},
      {"\xff", ".\xc9T\xe9"},
      {"?", "/"},
  };
  std::vector<std::string> urls = {
      "",          "?",           "?x.gif",       "/",
      "/a.gif",    "/a.GIF",      "/a.gif?",      "/a.gif?x=1.html",
      "/a.html",   "a",           "gif",          "/gif",
      ".gz",       "/x.tar.gz",   "/x.TAR.GZ",    "/x.gz",
      "/xgz",      "/tar.gz?y",   "/a.Html",      "/a.HTML?q=.css",
      "/a.css/",   "/a.\xc9t\xe9", "/a.\xc9T\xc9", "\xff",
      "/a?b?c",    "/dir/",       "l",            "/s.js",
  };
  // Seeded random URLs over an alphabet of the bytes that matter.
  const std::string alphabet = "aAgGiIfFzZlL./?\xff";
  std::uint64_t state = 12345;
  for (int i = 0; i < 3000; ++i) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    std::string url;
    for (std::uint64_t length = (state >> 33) % 9; length > 0; --length) {
      state = state * 6364136223846793005u + 1442695040888963407u;
      url += alphabet[(state >> 33) % alphabet.size()];
    }
    urls.push_back(url);
  }
  for (const std::vector<std::string>& list : lists) {
    const ExtensionFilter filter(list);
    LogRecordRef ref;
    for (const std::string& url : urls) {
      ref.url = url;
      EXPECT_EQ(filter.Keep(ref), OracleKeep(list, url))
          << "url '" << url << "', list of " << list.size();
    }
  }
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
  for (const LogRecord& record : history) filter.Observe(ViewOf(record));
  EXPECT_FALSE(filter.Keep(ViewOf(
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "6.6.6.6"))));
  EXPECT_TRUE(filter.Keep(ViewOf(
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "10.0.0.1"))));
}

TEST(RobotFilterTest, ObserveIsIdempotent) {
  std::vector<LogRecord> history = {
      RecordFor("/robots.txt", 200, HttpMethod::kGet, "6.6.6.6")};
  RobotFilter filter;
  filter.Observe(ViewOf(history[0]));
  filter.Observe(ViewOf(history[0]));
  EXPECT_FALSE(
      filter.Keep(ViewOf(RecordFor("/x", 200, HttpMethod::kGet, "6.6.6.6"))));
}

TEST(RobotFilterTest, ObserveCopiesTheIp) {
  RobotFilter filter;
  {
    const LogRecord robots =
        RecordFor("/robots.txt", 200, HttpMethod::kGet, "6.6.6.6");
    filter.Observe(ViewOf(robots));
  }
  EXPECT_FALSE(
      filter.Keep(ViewOf(RecordFor("/x", 200, HttpMethod::kGet, "6.6.6.6"))));
}

// Observation is a full first pass, so a crawler's page view logged
// before its /robots.txt request is dropped like the ones after it.
TEST(RobotFilterTest, DropsCrawlerPagesLoggedBeforeRobotsTxt) {
  const std::vector<LogRecord> log = {
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "6.6.6.6"),
      RecordFor("/robots.txt", 200, HttpMethod::kGet, "6.6.6.6"),
      RecordFor("/pages/p2.html", 200, HttpMethod::kGet, "6.6.6.6"),
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "10.0.0.1"),
  };
  RobotFilter filter;
  for (const LogRecord& record : log) filter.Observe(ViewOf(record));
  std::vector<bool> kept;
  for (const LogRecord& record : log) {
    kept.push_back(filter.Keep(ViewOf(record)));
  }
  EXPECT_EQ(kept, (std::vector<bool>{false, false, false, true}));
}

TEST(FilterChainTest, AppliesConjunction) {
  FilterChain chain = FilterChain::Standard();
  std::vector<LogRecord> records = {
      RecordFor("/pages/p1.html"),                          // kept
      RecordFor("/logo.gif"),                               // extension
      RecordFor("/pages/p2.html", 404),                     // status
      RecordFor("/pages/p3.html", 200, HttpMethod::kPost),  // method
  };
  std::vector<LogRecord> kept = KeptBy(&chain, records);
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
  KeptBy(&chain, records);
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
  EXPECT_EQ(KeptBy(&chain, records).size(), 1u);
}

TEST(FilterChainTest, OrderPreserved) {
  FilterChain chain = FilterChain::Standard();
  std::vector<LogRecord> records = {
      RecordFor("/pages/p2.html"),
      RecordFor("/pages/p1.html"),
  };
  std::vector<LogRecord> kept = KeptBy(&chain, records);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].url, "/pages/p2.html");
  EXPECT_EQ(kept[1].url, "/pages/p1.html");
}

}  // namespace
}  // namespace wum
