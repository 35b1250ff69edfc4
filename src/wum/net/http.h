// Minimal HTTP/1.1 GET handling for the observability endpoints: the
// request parser and response renderer of the LogServer's in-poll-loop
// scrape port, and the one-shot client that `websra_top` uses.
//
// Deliberately *not* a web server: GET only, no keep-alive (every
// response closes the connection), no chunked bodies, a hard cap on the
// request head. That is exactly what a Prometheus scrape needs, and the
// small surface is what lets the same hostility rules as the data port
// (read deadlines, connection caps, bounded buffers) hold trivially.

#ifndef WUM_NET_HTTP_H_
#define WUM_NET_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "wum/common/result.h"
#include "wum/net/socket.h"

namespace wum::net {

/// Upper bound on the request head (request line + headers). A scrape
/// request is ~100 bytes; anything this large is hostile.
inline constexpr std::size_t kMaxHttpRequestBytes = 8192;

struct HttpRequest {
  std::string method;  // e.g. "GET"
  std::string target;  // e.g. "/metrics" (query string included verbatim)
};

enum class HttpParseOutcome {
  kOk,        // a full request head was parsed
  kNeedMore,  // no terminating blank line yet — read more bytes
  kTooLarge,  // head exceeds kMaxHttpRequestBytes; close the connection
  kBad,       // malformed request line; close the connection
};

/// Parses the request head from `buffer` (everything received so far).
/// On kOk fills `*request`; headers are skipped — the endpoints need
/// only the method and target.
HttpParseOutcome ParseHttpRequest(std::string_view buffer,
                                  HttpRequest* request);

/// Renders a full HTTP/1.1 response with Content-Length and
/// `Connection: close`. `status_code` must be one the module knows
/// (200, 400, 404, 408, 413, 500, 503).
std::string RenderHttpResponse(int status_code, std::string_view content_type,
                               std::string_view body);

struct HttpResponse {
  int status_code = 0;
  std::string body;
};

/// Blocking one-shot HTTP GET, for `websra_top` and tests: connects,
/// sends the request, reads to EOF, and returns status code + body
/// (transport failures are the only errors; a 503 is a valid fetch).
Result<HttpResponse> HttpFetch(const std::string& host, std::uint16_t port,
                               const std::string& target);

/// HttpFetch that insists on a 200 and returns just the body.
Result<std::string> HttpGet(const std::string& host, std::uint16_t port,
                            const std::string& target);

}  // namespace wum::net

#endif  // WUM_NET_HTTP_H_
