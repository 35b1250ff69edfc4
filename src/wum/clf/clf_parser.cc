#include "wum/clf/clf_parser.h"

#include <charconv>

#include "wum/common/string_util.h"

namespace wum {
namespace {

/// Every reject names the CLF field it tripped on, so a sample error
/// like "line 7: field 'status': ..." pins down both where and what.
Status FieldError(std::string_view field, std::string_view detail) {
  return Status::ParseError("field '" + std::string(field) + "': " +
                            std::string(detail));
}

/// Parses the base-10 integer occupying all of `token` (ParseInt64's
/// rule: an optional '-', no '+', no whitespace, no overflow) into
/// `*out`. On failure returns `field`'s reject with ParseInt64's text.
Status ParseIntField(std::string_view field, std::string_view token,
                     std::int64_t* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out, 10);
  if (ec == std::errc() && ptr == end && !token.empty()) return Status::OK();
  return FieldError(field, "not an int64: '" + std::string(token) + "'");
}

/// Takes one quoted combined-format field off the front of `*extras`
/// into `*value` ("-" reads as empty) and strips what follows it.
Status TakeQuoted(std::string_view field, std::string_view* extras,
                  std::string_view* value) {
  if (extras->empty() || extras->front() != '"') {
    return FieldError(field, "expected quoted combined-format field");
  }
  const std::size_t closing = extras->find('"', 1);
  if (closing == std::string_view::npos) {
    return FieldError(field, "unterminated combined-format field");
  }
  *value = extras->substr(1, closing - 1);
  if (*value == "-") *value = std::string_view();
  *extras = StripWhitespace(extras->substr(closing + 1));
  return Status::OK();
}

/// The one CLF line parser. `line` is already stripped of surrounding
/// whitespace and not empty. Fills `*record` and returns OK, or returns
/// the first check that failed (leaving `*record` partly written). The
/// success path builds no Status message and allocates nothing; the
/// hops between fields are string_view::find (memchr).
Status ParseStrippedLine(std::string_view line, LogRecordRef* record) {
  // %h: client host.
  const std::size_t pos = line.find(' ');
  if (pos == std::string_view::npos) {
    return FieldError("host", "missing (no space-delimited fields)");
  }
  record->client_ip = line.substr(0, pos);

  // %l %u: identity fields, up to the '['.
  const std::size_t bracket = line.find('[', pos);
  if (bracket == std::string_view::npos) {
    return FieldError("timestamp", "missing '[' before timestamp");
  }
  const std::size_t bracket_end = line.find(']', bracket);
  if (bracket_end == std::string_view::npos) {
    return FieldError("timestamp", "missing ']' after timestamp");
  }
  const std::string_view timestamp =
      line.substr(bracket + 1, bracket_end - bracket - 1);
  const ClfTimestampError timestamp_error =
      ParseClfTimestampTo(timestamp, &record->timestamp);
  if (timestamp_error != ClfTimestampError::kOk) {
    return FieldError("timestamp",
                      ClfTimestampErrorMessage(timestamp_error, timestamp));
  }

  // "%r": the quoted request.
  const std::size_t quote = line.find('"', bracket_end);
  if (quote == std::string_view::npos) {
    return FieldError("request", "missing opening quote");
  }
  const std::size_t quote_end = line.find('"', quote + 1);
  if (quote_end == std::string_view::npos) {
    return FieldError("request", "missing closing quote");
  }
  const std::string_view request =
      line.substr(quote + 1, quote_end - quote - 1);
  std::string_view request_parts[3];
  std::size_t num_parts = 0;
  for (std::size_t start = 0; start < request.size();) {
    const std::size_t space = request.find(' ', start);
    const std::string_view part =
        space == std::string_view::npos
            ? request.substr(start)
            : request.substr(start, space - start);
    if (!part.empty()) {
      if (num_parts == 3) {
        return FieldError("request", "must be 'METHOD URL PROTOCOL'");
      }
      request_parts[num_parts++] = part;
    }
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
  if (num_parts != 3) {
    return FieldError("request", "must be 'METHOD URL PROTOCOL'");
  }
  if (request_parts[0] == "GET") {
    record->method = HttpMethod::kGet;
  } else if (request_parts[0] == "POST") {
    record->method = HttpMethod::kPost;
  } else if (request_parts[0] == "HEAD") {
    record->method = HttpMethod::kHead;
  } else {
    return FieldError("request",
                      "unsupported method '" + std::string(request_parts[0]) +
                          "'");
  }
  record->url = request_parts[1];
  record->protocol = request_parts[2];
  if (record->protocol != "HTTP/1.0" && record->protocol != "HTTP/1.1") {
    return FieldError("request", "unsupported protocol '" +
                                     std::string(record->protocol) + "'");
  }

  // %>s %b: status and bytes, then optionally the combined-format
  // "referer" "user-agent" quoted fields.
  const std::string_view tail = StripWhitespace(line.substr(quote_end + 1));
  const std::size_t first_space = tail.find(' ');
  if (first_space == std::string_view::npos) {
    return FieldError("status", "expected '<status> <bytes>' after request");
  }
  const std::string_view status_token = tail.substr(0, first_space);
  const std::string_view rest = StripWhitespace(tail.substr(first_space + 1));
  const std::size_t second_space = rest.find(' ');
  const std::string_view bytes_token =
      second_space == std::string_view::npos ? rest
                                             : rest.substr(0, second_space);
  std::string_view extras =
      second_space == std::string_view::npos
          ? std::string_view()
          : StripWhitespace(rest.substr(second_space + 1));

  std::int64_t status = 0;
  WUM_RETURN_NOT_OK(ParseIntField("status", status_token, &status));
  if (status < 100 || status > 599) {
    return FieldError("status", "status code out of range");
  }
  record->status_code = static_cast<int>(status);
  if (bytes_token == "-") {
    record->bytes = -1;
  } else {
    WUM_RETURN_NOT_OK(ParseIntField("bytes", bytes_token, &record->bytes));
    if (record->bytes < 0) return FieldError("bytes", "negative byte count");
  }

  if (!extras.empty()) {
    // Combined Log Format: "referer" "user-agent".
    WUM_RETURN_NOT_OK(TakeQuoted("referer", &extras, &record->referrer));
    WUM_RETURN_NOT_OK(TakeQuoted("user-agent", &extras, &record->user_agent));
    if (!extras.empty()) {
      return FieldError("user-agent", "trailing content after combined fields");
    }
  }
  return Status::OK();
}

}  // namespace

Result<LogRecordRef> ParseClfLineRef(std::string_view line) {
  line = StripWhitespace(line);
  if (line.empty()) return Status::ParseError("empty line");
  LogRecordRef record;
  WUM_RETURN_NOT_OK(ParseStrippedLine(line, &record));
  return record;
}

Result<LogRecord> ParseClfLine(std::string_view line) {
  WUM_ASSIGN_OR_RETURN(LogRecordRef record, ParseClfLineRef(line));
  return record.Materialize();
}

Status ClfParser::ParseChunk(std::string_view chunk,
                             std::vector<LogRecordRef>* records) {
  Scan(chunk, records, &scan_);
  Commit(scan_);
  return Status::OK();
}

void ClfParser::Scan(std::string_view chunk,
                     std::vector<LogRecordRef>* records, ChunkScan* scan) {
  scan->rejects.clear();
  const std::size_t records_before = records->size();
  std::uint64_t lines = 0;
  while (!chunk.empty()) {
    // A chunk need not end in '\n': the final line of a file (or of a
    // line-aligned ChunkReader chunk) parses like any other.
    const std::size_t end = chunk.find('\n');
    const std::string_view line = chunk.substr(0, end);  // npos: the rest
    chunk = end == std::string_view::npos ? std::string_view()
                                          : chunk.substr(end + 1);
    const std::uint64_t line_index = lines++;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    // Built in a local, then appended: written through a pointer into
    // the vector, every field store may alias the chunk's bytes, so the
    // compiler reloads them; that measured slower than the one copy.
    LogRecordRef record;
    Status status = ParseStrippedLine(stripped, &record);
    if (status.ok()) {
      records->push_back(record);
      continue;
    }
    scan->rejects.push_back(ScanReject{line_index, line, std::move(status)});
  }
  scan->lines = lines;
  scan->records = records->size() - records_before;
}

void ClfParser::Commit(const ChunkScan& scan) {
  const std::uint64_t first_line = stats_.lines_seen + 1;
  for (const ScanReject& reject : scan.rejects) {
    const std::uint64_t line_number = first_line + reject.line_index;
    ++stats_.lines_rejected;
    lines_rejected_.Increment();
    if (reject_handler_ != nullptr) {
      reject_handler_(line_number, reject.raw_line, reject.reason);
    }
    if (stats_.sample_errors.size() < kMaxSampleErrors) {
      stats_.sample_errors.push_back("line " + std::to_string(line_number) +
                                     ": " + reject.reason.message());
    }
  }
  stats_.lines_seen += scan.lines;
  stats_.records_parsed += scan.records;
  // The registry mirrors move once per chunk, not once per line.
  lines_seen_.Increment(scan.lines);
  records_parsed_.Increment(scan.records);
}

}  // namespace wum
