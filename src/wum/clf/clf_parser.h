// Robust Common Log Format parsing. Malformed lines are counted and
// reported, never fatal to the stream (real-world access logs are dirty).

#ifndef WUM_CLF_CLF_PARSER_H_
#define WUM_CLF_CLF_PARSER_H_

#include <functional>
#include <string>
#include <vector>

#include "wum/clf/log_record.h"
#include "wum/common/result.h"
#include "wum/obs/metrics.h"

namespace wum {

/// Parses one CLF line into a zero-copy LogRecordRef whose string fields
/// view into `line` — the caller's buffer must outlive the ref. Accepts
/// the "%h %l %u [%t] \"%r\" %>s %b" layout produced by ClfWriter and by
/// Apache/NCSA httpd; the two identity fields are tolerated but
/// discarded. Parse errors name the offending CLF field, e.g.
/// "field 'status': ...". This is the one CLF line parser: ParseChunk
/// runs the same code and appends each record without building a
/// Result. The success path allocates nothing.
Result<LogRecordRef> ParseClfLineRef(std::string_view line);

/// Owned-record convenience over ParseClfLineRef: parses then
/// Materialize()s. For tests and single-line slow paths; ingestion goes
/// through ClfParser::ParseChunk and never owns a record.
Result<LogRecord> ParseClfLine(std::string_view line);

/// Chunk parser with malformed-line accounting.
class ClfParser {
 public:
  struct Stats {
    std::uint64_t lines_seen = 0;
    std::uint64_t records_parsed = 0;
    std::uint64_t lines_rejected = 0;
    /// First few reject reasons, each prefixed with the 1-based line
    /// number and naming the offending field, for diagnostics.
    std::vector<std::string> sample_errors;
  };

  ClfParser() = default;

  /// With a registry, mirrors Stats into the counters "clf.lines_seen",
  /// "clf.records_parsed" (both once per committed chunk) and
  /// "clf.lines_rejected" (per reject) as the stream is parsed.
  /// `metrics` may be null (all handles stay disabled) and must
  /// otherwise outlive the parser.
  explicit ClfParser(obs::MetricRegistry* metrics)
      : lines_seen_(obs::CounterIn(metrics, "clf.lines_seen")),
        records_parsed_(obs::CounterIn(metrics, "clf.records_parsed")),
        lines_rejected_(obs::CounterIn(metrics, "clf.lines_rejected")) {}

  /// Called once per rejected line with its 1-based number, raw text and
  /// parse error. Generic on purpose: callers route rejects wherever they
  /// like (e.g. a stream-layer DeadLetterQueue, a "clf.reject" log line)
  /// without this package depending on theirs. Without a handler a
  /// reject only counts, so re-parsing a log already accounted for
  /// reports nothing twice.
  using RejectHandler = std::function<void(
      std::uint64_t line_number, std::string_view raw_line,
      const Status& reason)>;

  /// Installs `handler` (may be null to remove one). Sampling into
  /// stats().sample_errors continues either way.
  void set_reject_handler(RejectHandler handler) {
    reject_handler_ = std::move(handler);
  }

  /// Zero-copy batch parse: splits `chunk` on '\n' (a final unterminated
  /// line parses too, so line-aligned ChunkReader chunks compose into
  /// exactly the stream's lines) and appends a LogRecordRef viewing into
  /// `chunk` for every well-formed line. Every line counts in stats();
  /// blank lines are skipped, malformed ones are tallied and reported,
  /// never an error. Line numbering continues across chunks. The refs
  /// are only valid while `chunk`'s buffer is. Equivalent to Scan
  /// followed by Commit.
  Status ParseChunk(std::string_view chunk, std::vector<LogRecordRef>* records);

  /// One malformed line Scan found: its 0-based index among the chunk's
  /// lines, its raw text (a view into the chunk) and why it failed.
  struct ScanReject {
    std::uint64_t line_index = 0;
    std::string_view raw_line;
    Status reason;
  };

  /// What Scan found in one chunk besides its records. Reused across
  /// chunks: Scan clears it and keeps the capacity.
  struct ChunkScan {
    std::uint64_t lines = 0;
    std::uint64_t records = 0;
    std::vector<ScanReject> rejects;
  };

  /// The pure half of ParseChunk: the same split and the same one line
  /// parser, appending refs to `records` and overwriting `*scan`. It
  /// touches no parser state, no counter and no handler, so it may run
  /// on another thread than the Commit of the same chunk.
  static void Scan(std::string_view chunk, std::vector<LogRecordRef>* records,
                   ChunkScan* scan);

  /// The stateful half: counts `scan`'s lines, records and rejects in
  /// stats() and the registry, numbers each reject after every line
  /// committed before it, and reports it to the reject handler and the
  /// sample errors. Commit chunks in stream order, while the chunk the
  /// rejects' raw_line views point into is still alive.
  void Commit(const ChunkScan& scan);

  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kMaxSampleErrors = 8;

  RejectHandler reject_handler_;
  Stats stats_;
  ChunkScan scan_;  // ParseChunk's reusable scan result
  obs::Counter lines_seen_;
  obs::Counter records_parsed_;
  obs::Counter lines_rejected_;
};

}  // namespace wum

#endif  // WUM_CLF_CLF_PARSER_H_
