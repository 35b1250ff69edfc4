// ParseChunk is the zero-copy twin of a line-at-a-time parse: over any
// input — clean logs, corrupted lines, pure garbage, blank lines,
// missing final newline — it must accept exactly the lines ParseClfLine
// accepts, produce identical records, and keep identical accounting
// (stats, sample errors, reject-handler line numbers), whether the text
// arrives as one chunk, many line-aligned chunks, or through a
// ChunkReader over a real file. The reference is ReferenceParse below: a
// std::getline loop that skips blank lines and calls ParseClfLine.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wum/clf/chunk_reader.h"
#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/common/random.h"
#include "wum/common/string_util.h"

namespace wum {
namespace {

// Applies `count` random single-character corruptions (replace, insert,
// delete) to a string.
std::string Corrupt(std::string text, Rng* rng, int count) {
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t pos =
        static_cast<std::size_t>(rng->NextBounded(text.size()));
    char junk = static_cast<char>(rng->NextInRange(1, 126));
    if (junk == '\n') junk = ' ';  // corpus lines must stay single lines
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
    char c = static_cast<char>(rng->NextInRange(1, 255));
    if (c == '\n') c = ' ';  // corpus lines must stay single lines
    text += c;
  }
  return text;
}

/// A fuzz corpus line: clean CLF, clean Combined, corrupted, garbage, or
/// blank — the mix a dirty real-world access log serves.
std::string CorpusLine(Rng* rng) {
  LogRecord record;
  record.client_ip = "10.1.2." + std::to_string(rng->NextBounded(200));
  record.timestamp = 1136214245 + static_cast<TimeSeconds>(
                                      rng->NextBounded(100000));
  record.url = PageUrl(static_cast<std::uint32_t>(rng->NextBounded(300)));
  record.referrer = "http://www.site.example/pages/p7.html";
  record.user_agent = "Mozilla/4.0";
  record.bytes = static_cast<std::int64_t>(rng->NextBounded(9000));
  switch (rng->NextBounded(5)) {
    case 0:
      return FormatClfLine(record);
    case 1:
      return FormatCombinedLogLine(record);
    case 2:
      return Corrupt(FormatClfLine(record), rng, 1 + rng->NextBounded(6));
    case 3:
      return RandomGarbage(rng, 120);
    default:
      return std::string(rng->NextBounded(3), ' ');  // blank-ish line
  }
}

struct Reject {
  std::uint64_t line_number;
  std::string raw_line;

  friend bool operator==(const Reject&, const Reject&) = default;
};

ClfParser::RejectHandler Collect(std::vector<Reject>* rejects) {
  return [rejects](std::uint64_t line_number, std::string_view raw_line,
                   const Status&) {
    rejects->push_back(Reject{line_number, std::string(raw_line)});
  };
}

/// What a line-at-a-time parse of a stream yields.
struct Reference {
  std::vector<LogRecord> records;
  ClfParser::Stats stats;
  std::vector<Reject> rejects;
};

/// The reference line parser: every line counts as seen, blank lines are
/// skipped, the rest go through ParseClfLine; the first eight rejects are
/// sampled as "line <n>: <error>".
Reference ReferenceParse(std::istream* in) {
  Reference reference;
  ClfParser::Stats& stats = reference.stats;
  std::string line;
  while (std::getline(*in, line)) {
    ++stats.lines_seen;
    if (StripWhitespace(line).empty()) continue;
    Result<LogRecord> parsed = ParseClfLine(line);
    if (parsed.ok()) {
      ++stats.records_parsed;
      reference.records.push_back(std::move(*parsed));
      continue;
    }
    ++stats.lines_rejected;
    reference.rejects.push_back(Reject{stats.lines_seen, line});
    if (stats.sample_errors.size() < 8) {
      stats.sample_errors.push_back("line " + std::to_string(stats.lines_seen) +
                                    ": " + parsed.status().message());
    }
  }
  return reference;
}

void ExpectSameStats(const ClfParser::Stats& a, const ClfParser::Stats& b) {
  EXPECT_EQ(a.lines_seen, b.lines_seen);
  EXPECT_EQ(a.records_parsed, b.records_parsed);
  EXPECT_EQ(a.lines_rejected, b.lines_rejected);
  EXPECT_EQ(a.sample_errors, b.sample_errors);
}

TEST(ClfChunkParseTest, MatchesLineParsingOverFuzzCorpus) {
  Rng rng(211);
  for (int trial = 0; trial < 200; ++trial) {
    const int num_lines = 1 + static_cast<int>(rng.NextBounded(40));
    std::vector<std::string> lines;
    std::string text;
    for (int i = 0; i < num_lines; ++i) {
      lines.push_back(CorpusLine(&rng));
      text += lines.back();
      text += '\n';
    }

    // Reference: the documented line-at-a-time parser over each line.
    std::vector<LogRecord> expected;
    for (const std::string& line : lines) {
      Result<LogRecord> parsed = ParseClfLine(line);
      if (parsed.ok()) expected.push_back(std::move(*parsed));
    }

    std::vector<Reject> chunk_rejects;
    ClfParser parser;
    parser.set_reject_handler(Collect(&chunk_rejects));
    std::vector<LogRecordRef> refs;
    ASSERT_TRUE(parser.ParseChunk(text, &refs).ok());
    std::vector<LogRecord> actual;
    actual.reserve(refs.size());
    for (const LogRecordRef& ref : refs) actual.push_back(ref.Materialize());
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(parser.stats().lines_seen, lines.size());
    EXPECT_EQ(parser.stats().records_parsed, expected.size());

    // The reference line loop over the same text agrees on every count,
    // every sampled error, and every reject callback.
    std::stringstream stream(text);
    const Reference reference = ReferenceParse(&stream);
    EXPECT_EQ(actual, reference.records);
    ExpectSameStats(parser.stats(), reference.stats);
    EXPECT_EQ(chunk_rejects, reference.rejects);
  }
}

TEST(ClfChunkParseTest, LineAlignedChunksComposeWithContinuedNumbering) {
  Rng rng(223);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_lines = 2 + static_cast<int>(rng.NextBounded(30));
    std::string text;
    std::vector<std::size_t> boundaries;  // line-aligned split points
    for (int i = 0; i < num_lines; ++i) {
      text += CorpusLine(&rng);
      text += '\n';
      if (rng.Bernoulli(0.3)) boundaries.push_back(text.size());
    }

    std::vector<Reject> whole_rejects;
    ClfParser whole;
    whole.set_reject_handler(Collect(&whole_rejects));
    std::vector<LogRecordRef> whole_refs;
    ASSERT_TRUE(whole.ParseChunk(text, &whole_refs).ok());

    std::vector<Reject> split_rejects;
    ClfParser split;
    split.set_reject_handler(Collect(&split_rejects));
    std::vector<LogRecord> split_records;
    std::size_t start = 0;
    boundaries.push_back(text.size());
    for (const std::size_t end : boundaries) {
      std::vector<LogRecordRef> refs;
      ASSERT_TRUE(
          split.ParseChunk(
                   std::string_view(text).substr(start, end - start), &refs)
              .ok());
      // Chunk-local refs die with this iteration's view scope; own them.
      for (const LogRecordRef& ref : refs) {
        split_records.push_back(ref.Materialize());
      }
      start = end;
    }

    std::vector<LogRecord> whole_records;
    for (const LogRecordRef& ref : whole_refs) {
      whole_records.push_back(ref.Materialize());
    }
    EXPECT_EQ(split_records, whole_records);
    ExpectSameStats(split.stats(), whole.stats());
    // Line numbering continues across chunks: reject callbacks carry the
    // same absolute line numbers as the single-chunk parse.
    EXPECT_EQ(split_rejects, whole_rejects);
  }
}

TEST(ClfChunkParseTest, FinalUnterminatedLineParses) {
  LogRecord record;
  record.client_ip = "10.0.0.1";
  record.timestamp = 1136214245;
  record.url = "/pages/p3.html";
  const std::string text =
      FormatClfLine(record) + "\n" + FormatClfLine(record);  // no trailing \n
  ClfParser parser;
  std::vector<LogRecordRef> refs;
  ASSERT_TRUE(parser.ParseChunk(text, &refs).ok());
  EXPECT_EQ(refs.size(), 2u);
  EXPECT_EQ(parser.stats().lines_seen, 2u);
  EXPECT_EQ(parser.stats().records_parsed, 2u);
}

TEST(ClfChunkParseTest, ChunkReaderFeedsParseChunkIdenticallyToStream) {
  namespace fs = std::filesystem;
  Rng rng(227);
  const fs::path path =
      fs::path(testing::TempDir()) / "clf_chunk_parse_test.log";
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += CorpusLine(&rng);
    text += '\n';
  }
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.write(text.data(),
                          static_cast<std::streamsize>(text.size())));
  }

  // Tiny chunk size forces many line-aligned chunks through the reader.
  Result<ChunkReader> reader = ChunkReader::Open(path.string(), 512);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ClfParser chunk_parser;
  std::vector<LogRecord> chunk_records;
  std::size_t chunks = 0;
  while (std::optional<std::string_view> chunk = reader->Next()) {
    ++chunks;
    std::vector<LogRecordRef> refs;
    ASSERT_TRUE(chunk_parser.ParseChunk(*chunk, &refs).ok());
    for (const LogRecordRef& ref : refs) {
      chunk_records.push_back(ref.Materialize());
    }
  }
  EXPECT_GT(chunks, 1u);

  std::ifstream in(path, std::ios::binary);
  const Reference reference = ReferenceParse(&in);
  EXPECT_EQ(chunk_records, reference.records);
  ExpectSameStats(chunk_parser.stats(), reference.stats);

  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace
}  // namespace wum
