#include <gtest/gtest.h>

#include <sstream>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/common/random.h"
#include "wum/obs/metrics.h"

namespace wum {
namespace {

LogRecord SampleRecord() {
  LogRecord record;
  record.client_ip = "10.1.2.3";
  record.timestamp = 1136214245;  // 02/Jan/2006:15:04:05 UTC
  record.method = HttpMethod::kGet;
  record.url = "/pages/p42.html";
  record.protocol = "HTTP/1.1";
  record.status_code = 200;
  record.bytes = 2326;
  return record;
}

TEST(ClfWriterTest, FormatsCanonicalLine) {
  EXPECT_EQ(FormatClfLine(SampleRecord()),
            "10.1.2.3 - - [02/Jan/2006:15:04:05 +0000] "
            "\"GET /pages/p42.html HTTP/1.1\" 200 2326");
}

TEST(ClfWriterTest, DashForMissingBytes) {
  LogRecord record = SampleRecord();
  record.bytes = -1;
  record.status_code = 304;
  EXPECT_EQ(FormatClfLine(record),
            "10.1.2.3 - - [02/Jan/2006:15:04:05 +0000] "
            "\"GET /pages/p42.html HTTP/1.1\" 304 -");
}

TEST(ClfWriterTest, StreamWriterCountsLines) {
  std::ostringstream oss;
  ClfWriter writer(&oss);
  writer.Write(SampleRecord());
  writer.Write(SampleRecord());
  EXPECT_EQ(writer.records_written(), 2u);
  const std::string output = oss.str();
  EXPECT_EQ(std::count(output.begin(), output.end(), '\n'), 2);
}

TEST(ClfParserTest, ParsesCanonicalLine) {
  Result<LogRecord> parsed = ParseClfLine(
      "10.1.2.3 - - [02/Jan/2006:15:04:05 +0000] "
      "\"GET /pages/p42.html HTTP/1.1\" 200 2326");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, SampleRecord());
}

TEST(ClfParserTest, ParsesApacheStyleIdentityFields) {
  // Real logs carry identd/user fields; they are tolerated and dropped.
  Result<LogRecord> parsed = ParseClfLine(
      "10.1.2.3 ident frank [02/Jan/2006:15:04:05 +0000] "
      "\"GET /pages/p42.html HTTP/1.1\" 200 2326");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->client_ip, "10.1.2.3");
  EXPECT_EQ(parsed->url, "/pages/p42.html");
}

TEST(ClfParserTest, ParsesDashBytes) {
  Result<LogRecord> parsed = ParseClfLine(
      "10.1.2.3 - - [02/Jan/2006:15:04:05 +0000] "
      "\"GET /x HTTP/1.0\" 304 -");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->bytes, -1);
  EXPECT_EQ(parsed->status_code, 304);
  EXPECT_EQ(parsed->protocol, "HTTP/1.0");
}

TEST(ClfParserTest, ParsesPostAndHead) {
  Result<LogRecord> post = ParseClfLine(
      "1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] \"POST /f HTTP/1.1\" 200 10");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->method, HttpMethod::kPost);
  Result<LogRecord> head = ParseClfLine(
      "1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] \"HEAD /f HTTP/1.1\" 200 0");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->method, HttpMethod::kHead);
}

TEST(ClfParserTest, RejectsMalformedLines) {
  EXPECT_TRUE(ParseClfLine("").status().IsParseError());
  EXPECT_TRUE(ParseClfLine("onlyhost").status().IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - no-brackets \"GET /x HTTP/1.1\" 200 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000 \"GET /x "
                           "HTTP/1.1\" 200 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] GET /x "
                           "HTTP/1.1 200 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x\" "
                           "200 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"FROB /x "
                           "HTTP/1.1\" 200 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/9.9\" 200 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/1.1\" 999 1")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/1.1\" 200 -5")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/1.1\" 200 1 extra")
                  .status()
                  .IsParseError());
}

TEST(ClfParserTest, ErrorsNameTheOffendingField) {
  // Each malformed line must blame the specific CLF field, not just say
  // "parse error" — operators triage bad logs from these messages.
  const struct {
    const char* line;
    const char* field;
  } kCases[] = {
      {"onlyhost", "host"},
      {"h - - no-brackets \"GET /x HTTP/1.1\" 200 1", "timestamp"},
      {"h - - [02/Jan/2006:15:04:05 +0000] GET-no-quotes 200 1", "request"},
      {"h - - [02/Jan/2006:15:04:05 +0000] \"FROB /x HTTP/1.1\" 200 1",
       "request"},
      {"h - - [02/Jan/2006:15:04:05 +0000] \"GET /x HTTP/1.1\" abc 1",
       "status"},
      {"h - - [02/Jan/2006:15:04:05 +0000] \"GET /x HTTP/1.1\" 200 oops",
       "bytes"},
  };
  for (const auto& test_case : kCases) {
    const Status status = ParseClfLine(test_case.line).status();
    ASSERT_TRUE(status.IsParseError()) << test_case.line;
    EXPECT_NE(status.message().find(std::string("field '") + test_case.field +
                                    "'"),
              std::string::npos)
        << test_case.line << " -> " << status.ToString();
  }
}

TEST(ClfStreamParserTest, SampleErrorsCarryLineNumberAndField) {
  std::stringstream stream;
  stream << FormatClfLine(SampleRecord()) << '\n'
         << "h - - [02/Jan/2006:15:04:05 +0000] \"GET /x HTTP/1.1\" abc 1\n";
  ClfParser parser;
  const std::string text = stream.str();
  std::vector<LogRecordRef> records;
  ASSERT_TRUE(parser.ParseChunk(text, &records).ok());
  ASSERT_EQ(parser.stats().sample_errors.size(), 1u);
  EXPECT_NE(parser.stats().sample_errors[0].find("line 2"),
            std::string::npos);
  EXPECT_NE(parser.stats().sample_errors[0].find("field 'status'"),
            std::string::npos);
}

TEST(ClfStreamParserTest, MetricsMirrorStats) {
  std::stringstream stream;
  stream << FormatClfLine(SampleRecord()) << '\n'
         << "garbage line\n"
         << FormatClfLine(SampleRecord()) << '\n';
  obs::MetricRegistry registry;
  ClfParser parser(&registry);
  const std::string text = stream.str();
  std::vector<LogRecordRef> records;
  ASSERT_TRUE(parser.ParseChunk(text, &records).ok());
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOrZero("clf.lines_seen"),
            parser.stats().lines_seen);
  EXPECT_EQ(snapshot.CounterOrZero("clf.records_parsed"),
            parser.stats().records_parsed);
  EXPECT_EQ(snapshot.CounterOrZero("clf.lines_rejected"),
            parser.stats().lines_rejected);
  EXPECT_EQ(snapshot.CounterOrZero("clf.records_parsed"), 2u);
  EXPECT_EQ(snapshot.CounterOrZero("clf.lines_rejected"), 1u);
}

TEST(ClfParserTest, WhitespaceTolerated) {
  Result<LogRecord> parsed = ParseClfLine(
      "  10.1.2.3 - - [02/Jan/2006:15:04:05 +0000] "
      "\"GET /pages/p42.html HTTP/1.1\" 200 2326  \r");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, SampleRecord());
}

TEST(CombinedLogTest, FormatsReferrerAndAgent) {
  LogRecord record = SampleRecord();
  record.referrer = "http://www.site.example/pages/p7.html";
  record.user_agent = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)";
  EXPECT_EQ(FormatCombinedLogLine(record),
            "10.1.2.3 - - [02/Jan/2006:15:04:05 +0000] "
            "\"GET /pages/p42.html HTTP/1.1\" 200 2326 "
            "\"http://www.site.example/pages/p7.html\" "
            "\"Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)\"");
}

TEST(CombinedLogTest, EmptyExtrasRenderAsDash) {
  LogRecord record = SampleRecord();
  const std::string line = FormatCombinedLogLine(record);
  EXPECT_NE(line.find("2326 \"-\" \"-\""), std::string::npos);
}

TEST(CombinedLogTest, ParserRoundTripsCombinedLines) {
  LogRecord record = SampleRecord();
  record.referrer = "http://www.site.example/pages/p7.html";
  record.user_agent = "Opera/8.51 (Windows NT 5.1; U; en)";
  Result<LogRecord> back = ParseClfLine(FormatCombinedLogLine(record));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, record);
}

TEST(CombinedLogTest, DashFieldsParseAsEmpty) {
  Result<LogRecord> parsed = ParseClfLine(
      "10.1.2.3 - - [02/Jan/2006:15:04:05 +0000] "
      "\"GET /pages/p42.html HTTP/1.1\" 200 2326 \"-\" \"-\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->referrer.empty());
  EXPECT_TRUE(parsed->user_agent.empty());
}

TEST(CombinedLogTest, MalformedExtrasRejected) {
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/1.1\" 200 1 extra")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/1.1\" 200 1 \"unterminated")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/1.1\" 200 1 \"ref\" \"ua\" junk")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseClfLine("h - - [02/Jan/2006:15:04:05 +0000] \"GET /x "
                           "HTTP/1.1\" 200 1 \"ref-only\"")
                  .status()
                  .IsParseError());
}

TEST(ClfRoundTripTest, RandomRecordsSurvive) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    LogRecord record;
    record.client_ip = AgentIp(rng.NextBounded(100000));
    record.timestamp = rng.NextInRange(0, 4102444800LL);
    record.method = static_cast<HttpMethod>(rng.NextBounded(3));
    record.url = PageUrl(static_cast<std::uint32_t>(rng.NextBounded(100000)));
    record.protocol = rng.Bernoulli(0.5) ? "HTTP/1.0" : "HTTP/1.1";
    record.status_code = rng.Bernoulli(0.8) ? 200 : 404;
    record.bytes = rng.Bernoulli(0.1)
                       ? -1
                       : static_cast<std::int64_t>(rng.NextBounded(1 << 20));
    Result<LogRecord> back = ParseClfLine(FormatClfLine(record));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, record);
  }
}

TEST(ClfStreamParserTest, CountsGoodAndBadLines) {
  std::stringstream stream;
  stream << FormatClfLine(SampleRecord()) << '\n'
         << "garbage line\n"
         << '\n'  // blank: skipped, not an error
         << FormatClfLine(SampleRecord()) << '\n'
         << "another bad one\n";
  ClfParser parser;
  const std::string text = stream.str();
  std::vector<LogRecordRef> records;
  ASSERT_TRUE(parser.ParseChunk(text, &records).ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(parser.stats().lines_seen, 5u);
  EXPECT_EQ(parser.stats().records_parsed, 2u);
  EXPECT_EQ(parser.stats().lines_rejected, 2u);
  ASSERT_EQ(parser.stats().sample_errors.size(), 2u);
  EXPECT_NE(parser.stats().sample_errors[0].find("line 2"),
            std::string::npos);
}

TEST(ClfStreamParserTest, SampleErrorsCapped) {
  std::stringstream stream;
  for (int i = 0; i < 20; ++i) stream << "bad\n";
  ClfParser parser;
  const std::string text = stream.str();
  std::vector<LogRecordRef> records;
  ASSERT_TRUE(parser.ParseChunk(text, &records).ok());
  EXPECT_EQ(parser.stats().lines_rejected, 20u);
  EXPECT_EQ(parser.stats().sample_errors.size(), 8u);
}

}  // namespace
}  // namespace wum
