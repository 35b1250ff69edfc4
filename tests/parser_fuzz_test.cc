// Robustness fuzzing: every parser in the library must return a Status
// (never crash, never hang, never accept garbage silently) on randomly
// corrupted inputs. Deterministic seeds keep failures reproducible.

#include <gtest/gtest.h>

#include <sstream>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/common/random.h"
#include "wum/session/session_io.h"
#include "wum/topology/graph_io.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

// Applies `count` random single-character corruptions (replace, insert,
// delete) to a string.
std::string Corrupt(std::string text, Rng* rng, int count) {
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t pos =
        static_cast<std::size_t>(rng->NextBounded(text.size()));
    const char junk = static_cast<char>(rng->NextInRange(1, 126));
    switch (rng->NextBounded(3)) {
      case 0:
        text[pos] = junk;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), junk);
        break;
      default:
        text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
    }
  }
  return text;
}

std::string RandomGarbage(Rng* rng, std::size_t max_length) {
  std::string text;
  const std::size_t length =
      static_cast<std::size_t>(rng->NextBounded(max_length + 1));
  for (std::size_t i = 0; i < length; ++i) {
    text += static_cast<char>(rng->NextInRange(1, 255));
  }
  return text;
}

TEST(ParserFuzzTest, ClfLineCorruptions) {
  Rng rng(101);
  LogRecord record;
  record.client_ip = "10.1.2.3";
  record.timestamp = 1136214245;
  record.url = "/pages/p42.html";
  record.referrer = "http://www.site.example/pages/p7.html";
  record.user_agent = "Mozilla/4.0";
  record.bytes = 2326;
  for (int trial = 0; trial < 5000; ++trial) {
    const std::string base = rng.Bernoulli(0.5)
                                 ? FormatClfLine(record)
                                 : FormatCombinedLogLine(record);
    const std::string line = Corrupt(base, &rng, 1 + rng.NextBounded(6));
    Result<LogRecord> parsed = ParseClfLine(line);  // must not crash
    if (parsed.ok()) {
      // Whatever survived must be internally consistent.
      EXPECT_GE(parsed->status_code, 100);
      EXPECT_LE(parsed->status_code, 599);
      EXPECT_GE(parsed->bytes, -1);
      EXPECT_FALSE(parsed->client_ip.empty());
    }
  }
}

TEST(ParserFuzzTest, ClfLinePureGarbage) {
  Rng rng(103);
  for (int trial = 0; trial < 5000; ++trial) {
    (void)ParseClfLine(RandomGarbage(&rng, 200));  // must not crash
  }
}

TEST(ParserFuzzTest, ClfStreamNeverFailsOnGarbage) {
  Rng rng(107);
  for (int trial = 0; trial < 200; ++trial) {
    std::stringstream stream;
    const int lines = 1 + static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < lines; ++i) {
      stream << RandomGarbage(&rng, 120) << '\n';
    }
    const std::string text = stream.str();
    ClfParser parser;
    std::vector<LogRecordRef> records;
    EXPECT_TRUE(parser.ParseChunk(text, &records).ok());
    EXPECT_EQ(parser.stats().records_parsed, records.size());
  }
}

TEST(ParserFuzzTest, GraphTextCorruptions) {
  Rng site_rng(5);
  SiteGeneratorOptions options;
  options.num_pages = 20;
  options.mean_out_degree = 3.0;
  WebGraph graph = *GenerateUniformSite(options, &site_rng);
  std::ostringstream canonical;
  WriteGraphText(graph, &canonical);
  const std::string base = canonical.str();

  Rng rng(109);
  for (int trial = 0; trial < 2000; ++trial) {
    std::stringstream corrupted(Corrupt(base, &rng, 1 + rng.NextBounded(8)));
    Result<WebGraph> parsed = ReadGraphText(&corrupted);  // must not crash
    if (parsed.ok()) {
      // Accepted graphs must be structurally sound.
      for (std::size_t p = 0; p < parsed->num_pages(); ++p) {
        for (PageId to : parsed->OutLinks(static_cast<PageId>(p))) {
          EXPECT_TRUE(parsed->IsValidPage(to));
        }
      }
      for (PageId start : parsed->start_pages()) {
        EXPECT_TRUE(parsed->IsValidPage(start));
      }
    }
  }
}

TEST(ParserFuzzTest, GraphTextPureGarbage) {
  Rng rng(113);
  for (int trial = 0; trial < 1000; ++trial) {
    std::stringstream stream(RandomGarbage(&rng, 400));
    (void)ReadGraphText(&stream);
  }
}

TEST(ParserFuzzTest, SessionFileCorruptions) {
  std::vector<UserSession> sessions = {
      UserSession{"10.0.0.1", MakeSession({1, 2, 3}, {10, 20, 30})},
      UserSession{"10.0.0.2", MakeSession({7, 9}, {100, 150})},
  };
  std::ostringstream canonical;
  WriteSessionsText(sessions, &canonical);
  const std::string base = canonical.str();

  Rng rng(127);
  for (int trial = 0; trial < 2000; ++trial) {
    std::stringstream corrupted(Corrupt(base, &rng, 1 + rng.NextBounded(8)));
    Result<std::vector<UserSession>> parsed =
        ReadSessionsText(&corrupted);  // must not crash
    if (parsed.ok()) {
      for (const UserSession& entry : *parsed) {
        EXPECT_FALSE(entry.user_key.empty());
      }
    }
  }
}

TEST(ParserFuzzTest, ClfTimestampGarbage) {
  Rng rng(131);
  for (int trial = 0; trial < 5000; ++trial) {
    (void)ParseClfTimestamp(RandomGarbage(&rng, 40));
  }
  // Near-valid timestamps with digit corruption.
  const std::string base = "02/Jan/2006:15:04:05 +0000";
  for (int trial = 0; trial < 5000; ++trial) {
    Result<TimeSeconds> parsed =
        ParseClfTimestamp(Corrupt(base, &rng, 1 + rng.NextBounded(4)));
    if (parsed.ok()) {
      // Anything accepted must round-trip through the formatter.
      EXPECT_FALSE(FormatClfTimestamp(*parsed).empty());
    }
  }
}

}  // namespace
}  // namespace wum
