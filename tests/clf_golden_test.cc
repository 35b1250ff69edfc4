// Replays the golden CLF parse corpus, tests/data/clf_golden.tsv (written
// by clf_golden_gen; see that file for the row format). Every corpus
// line must get exactly its recorded outcome from ParseClfLineRef — the
// same fields, or the same error text byte for byte — and ParseChunk
// over the whole corpus must keep the matching records, counts, sampled
// errors and reject callbacks. The corpus holds every reject reason, so
// a change to which check runs first shows up as a changed message.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "wum/clf/clf_parser.h"
#include "wum/obs/metrics.h"

namespace wum {
namespace {

/// Inverse of clf_golden_gen's EscapeField: "\\\\" is a backslash,
/// "\\xHH" one byte.
std::string Unescape(std::string_view field) {
  std::string out;
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\') {
      out += field[i];
    } else if (field[i + 1] == '\\') {
      out += '\\';
      ++i;
    } else {
      out += static_cast<char>(
          std::stoi(std::string(field.substr(i + 2, 2)), nullptr, 16));
      i += 3;
    }
  }
  return out;
}

struct GoldenRow {
  std::string line;
  bool ok = false;
  LogRecord record;   // when ok
  std::string error;  // when not
};

std::vector<std::string_view> SplitTabs(std::string_view row) {
  std::vector<std::string_view> fields;
  while (true) {
    const std::size_t tab = row.find('\t');
    fields.push_back(row.substr(0, tab));
    if (tab == std::string_view::npos) return fields;
    row.remove_prefix(tab + 1);
  }
}

std::vector<GoldenRow> LoadGolden() {
  std::ifstream in(std::string(WEBSRA_TEST_DATA_DIR) + "/clf_golden.tsv");
  EXPECT_TRUE(in.good()) << "missing tests/data/clf_golden.tsv";
  std::vector<GoldenRow> rows;
  std::string text;
  while (std::getline(in, text)) {
    const std::vector<std::string_view> fields = SplitTabs(text);
    GoldenRow row;
    row.line = Unescape(fields.at(0));
    if (fields.at(1) == "ERR") {
      EXPECT_EQ(fields.size(), 3u) << text;
      row.error = Unescape(fields.at(2));
    } else {
      EXPECT_EQ(fields.at(1), "OK") << text;
      EXPECT_EQ(fields.size(), 11u) << text;
      row.ok = true;
      LogRecord& r = row.record;
      r.client_ip = Unescape(fields.at(2));
      r.timestamp = std::stoll(std::string(fields.at(3)));
      for (HttpMethod method :
           {HttpMethod::kGet, HttpMethod::kPost, HttpMethod::kHead}) {
        if (fields.at(4) == HttpMethodToString(method)) r.method = method;
      }
      r.url = Unescape(fields.at(5));
      r.protocol = Unescape(fields.at(6));
      r.status_code = std::stoi(std::string(fields.at(7)));
      r.bytes = std::stoll(std::string(fields.at(8)));
      r.referrer = Unescape(fields.at(9));
      r.user_agent = Unescape(fields.at(10));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

const std::vector<GoldenRow>& Golden() {
  static const std::vector<GoldenRow>* const rows =
      new std::vector<GoldenRow>(LoadGolden());
  return *rows;
}

/// ParseChunk skips a blank line instead of rejecting it; the line
/// parser reports it as "empty line".
bool IsBlank(const GoldenRow& row) {
  return !row.ok && row.error == "empty line";
}

TEST(ClfGoldenTest, CorpusCoversEveryRejectReason) {
  const std::vector<std::string> reasons = {
      "empty line",
      "field 'host': missing (no space-delimited fields)",
      "field 'timestamp': missing '[' before timestamp",
      "field 'timestamp': missing ']' after timestamp",
      "field 'timestamp': CLF timestamp too short: '",
      "field 'timestamp': bad CLF day field",
      "field 'timestamp': bad CLF month field",
      "field 'timestamp': bad CLF year field",
      "field 'timestamp': bad CLF time-of-day field",
      "field 'timestamp': bad CLF zone sign",
      "field 'timestamp': bad CLF zone offset",
      "field 'timestamp': CLF timestamp has impossible date fields: '",
      "field 'request': missing opening quote",
      "field 'request': missing closing quote",
      "field 'request': must be 'METHOD URL PROTOCOL'",
      "field 'request': unsupported method '",
      "field 'request': unsupported protocol '",
      "field 'status': expected '<status> <bytes>' after request",
      "field 'status': not an int64: '",
      "field 'status': status code out of range",
      "field 'bytes': not an int64: '",
      "field 'bytes': negative byte count",
      "field 'referer': expected quoted combined-format field",
      "field 'referer': unterminated combined-format field",
      "field 'user-agent': expected quoted combined-format field",
      "field 'user-agent': unterminated combined-format field",
      "field 'user-agent': trailing content after combined fields",
  };
  const std::vector<GoldenRow>& rows = Golden();
  ASSERT_GT(rows.size(), 2000u);
  for (const std::string& reason : reasons) {
    std::size_t count = 0;
    for (const GoldenRow& row : rows) {
      if (!row.ok && row.error.starts_with(reason)) ++count;
    }
    EXPECT_GT(count, 0u) << "no corpus line is rejected with: " << reason;
  }
}

TEST(ClfGoldenTest, LineParserReproducesEveryOutcome) {
  const std::vector<GoldenRow>& rows = Golden();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GoldenRow& row = rows[i];
    SCOPED_TRACE("corpus row " + std::to_string(i + 1));
    Result<LogRecordRef> parsed = ParseClfLineRef(row.line);
    if (row.ok) {
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->Materialize(), row.record);
    } else {
      ASSERT_FALSE(parsed.ok());
      EXPECT_TRUE(parsed.status().IsParseError());
      EXPECT_EQ(parsed.status().message(), row.error);
    }
  }
}

struct Reject {
  std::uint64_t line_number = 0;
  std::string raw_line;
  std::string message;

  friend bool operator==(const Reject&, const Reject&) = default;
};

/// Feeds the corpus to one ParseChunk call per `lines_per_chunk` lines
/// (0: the whole corpus in one call, without a final newline) and checks
/// everything the parser reports against the rows.
void ExpectChunkParseMatches(std::size_t lines_per_chunk) {
  const std::vector<GoldenRow>& rows = Golden();
  std::vector<std::string> chunks(1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (lines_per_chunk > 0 && i > 0 && i % lines_per_chunk == 0) {
      chunks.emplace_back();
    }
    chunks.back() += rows[i].line;
    if (lines_per_chunk > 0 || i + 1 < rows.size()) chunks.back() += '\n';
  }

  obs::MetricRegistry registry;
  ClfParser parser(&registry);
  std::vector<Reject> rejects;
  parser.set_reject_handler([&rejects](std::uint64_t line_number,
                                       std::string_view raw_line,
                                       const Status& reason) {
    rejects.push_back(
        Reject{line_number, std::string(raw_line), reason.message()});
  });
  std::vector<LogRecord> records;
  std::vector<LogRecordRef> refs;
  for (const std::string& chunk : chunks) {
    refs.clear();
    ASSERT_TRUE(parser.ParseChunk(chunk, &refs).ok());
    for (const LogRecordRef& ref : refs) records.push_back(ref.Materialize());
  }

  std::vector<LogRecord> expected_records;
  std::vector<Reject> expected_rejects;
  std::vector<std::string> expected_samples;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GoldenRow& row = rows[i];
    if (row.ok) {
      expected_records.push_back(row.record);
    } else if (!IsBlank(row)) {
      expected_rejects.push_back(Reject{i + 1, row.line, row.error});
      if (expected_samples.size() < 8) {
        expected_samples.push_back("line " + std::to_string(i + 1) + ": " +
                                   row.error);
      }
    }
  }
  EXPECT_EQ(records, expected_records);
  EXPECT_EQ(rejects, expected_rejects);
  const ClfParser::Stats& stats = parser.stats();
  EXPECT_EQ(stats.lines_seen, rows.size());
  EXPECT_EQ(stats.records_parsed, expected_records.size());
  EXPECT_EQ(stats.lines_rejected, expected_rejects.size());
  EXPECT_EQ(stats.sample_errors, expected_samples);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOrZero("clf.lines_seen"), stats.lines_seen);
  EXPECT_EQ(snapshot.CounterOrZero("clf.records_parsed"),
            stats.records_parsed);
  EXPECT_EQ(snapshot.CounterOrZero("clf.lines_rejected"),
            stats.lines_rejected);
}

TEST(ClfGoldenTest, ParseChunkMatchesTheCorpusInOneChunk) {
  ExpectChunkParseMatches(0);
}

TEST(ClfGoldenTest, ParseChunkMatchesTheCorpusInManyChunks) {
  ExpectChunkParseMatches(7);
}

}  // namespace
}  // namespace wum
