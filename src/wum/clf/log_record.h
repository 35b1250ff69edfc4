// Common Log Format record model (paper §1, W3C httpd "common" format).
//
// Each server-handled request is one record with the seven attributes the
// paper lists: client IP, access date/time, request method, URL, protocol,
// return code, and bytes transmitted.

#ifndef WUM_CLF_LOG_RECORD_H_
#define WUM_CLF_LOG_RECORD_H_

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "wum/common/time.h"

namespace wum {

/// HTTP request method as restricted by CLF-era web usage mining.
enum class HttpMethod {
  kGet = 0,
  kPost = 1,
  kHead = 2,
};

std::string_view HttpMethodToString(HttpMethod method);

/// Protocol assumed when a record does not carry one. Short enough for
/// every mainstream std::string small-buffer, so default-constructing a
/// LogRecord never touches the heap.
inline constexpr std::string_view kDefaultProtocol = "HTTP/1.1";

/// One access-log line in structured form.
struct LogRecord {
  /// Dotted-quad client address (proxy users share one, per §1).
  std::string client_ip;
  /// Request instant, UNIX seconds UTC.
  TimeSeconds timestamp = 0;
  HttpMethod method = HttpMethod::kGet;
  /// Request path, e.g. "/pages/p42.html".
  std::string url;
  /// "HTTP/1.0" or "HTTP/1.1".
  std::string protocol{kDefaultProtocol};
  /// HTTP status (200, 304, 404, ...).
  int status_code = 200;
  /// Response size in bytes; -1 renders as "-" (no body).
  std::int64_t bytes = 0;
  /// Combined Log Format extras; empty renders as "-". Plain CLF output
  /// omits them entirely (the paper's seven-attribute format), but the
  /// parser accepts both layouts and the referrer-oracle ablation needs
  /// them.
  std::string referrer;
  std::string user_agent;

  friend auto operator<=>(const LogRecord&, const LogRecord&) = default;
};

/// Zero-copy view of one access-log line: the string fields are
/// std::string_views into the buffer the line was parsed from (see
/// ClfParser::ParseChunk). A ref is valid only while that buffer is —
/// for a ByteSource chunk, until the next Next() call. Every ingest path
/// consumes a chunk's refs before the next chunk and copies only what it
/// keeps: UserPartitioner a user key and a PageRequest, the engine a
/// ShardRecord, RobotFilter a crawler IP.
struct LogRecordRef {
  std::string_view client_ip;
  TimeSeconds timestamp = 0;
  HttpMethod method = HttpMethod::kGet;
  std::string_view url;
  std::string_view protocol = kDefaultProtocol;
  int status_code = 200;
  std::int64_t bytes = 0;
  std::string_view referrer;
  std::string_view user_agent;

  /// Copies the viewed fields into an owned LogRecord (ParseClfLine's
  /// single-line slow path; no ingest path owns records).
  LogRecord Materialize() const;

  friend auto operator<=>(const LogRecordRef&, const LogRecordRef&) = default;
};

/// Borrows `record` as a LogRecordRef; valid while `record` is alive and
/// unmodified. This is how single-record call sites reuse the batch path.
LogRecordRef ViewOf(const LogRecord& record);

/// Maps a dense PageId to the canonical URL used by the simulator
/// ("/pages/p<id>.html") and back.
std::string PageUrl(std::uint32_t page);

/// Extracts the page id from a canonical URL; nullopt for URLs not of
/// the canonical form, including an id that does not fit 32 bits. A miss
/// never allocates: the producer resolves every kept record's URL.
std::optional<std::uint32_t> PageFromUrl(std::string_view url);

/// Renders a synthetic client IP for an agent id, so at most 254^2 hosts
/// per /16: "10.<a>.<b>.<c>".
std::string AgentIp(std::uint64_t agent_id);

/// Absolute Referer-header URL for a page, as a 2006-era browser would
/// send it: "http://www.site.example/pages/p<id>.html".
std::string ReferrerUrl(std::uint32_t page);

/// Extracts the page id from a Referer value; accepts both the absolute
/// form produced by ReferrerUrl and a bare canonical path. nullopt for
/// external or empty referrers; like PageFromUrl, a miss never
/// allocates.
std::optional<std::uint32_t> PageFromReferrer(std::string_view referrer);

}  // namespace wum

#endif  // WUM_CLF_LOG_RECORD_H_
