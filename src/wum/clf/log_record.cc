#include "wum/clf/log_record.h"

#include <charconv>
#include <cstdio>

#include "wum/common/string_util.h"

namespace wum {

std::string_view HttpMethodToString(HttpMethod method) {
  switch (method) {
    case HttpMethod::kGet:
      return "GET";
    case HttpMethod::kPost:
      return "POST";
    case HttpMethod::kHead:
      return "HEAD";
  }
  return "GET";
}

LogRecord LogRecordRef::Materialize() const {
  LogRecord record;
  record.client_ip = client_ip;
  record.timestamp = timestamp;
  record.method = method;
  record.url = url;
  record.protocol = protocol;
  record.status_code = status_code;
  record.bytes = bytes;
  record.referrer = referrer;
  record.user_agent = user_agent;
  return record;
}

LogRecordRef ViewOf(const LogRecord& record) {
  LogRecordRef ref;
  ref.client_ip = record.client_ip;
  ref.timestamp = record.timestamp;
  ref.method = record.method;
  ref.url = record.url;
  ref.protocol = record.protocol;
  ref.status_code = record.status_code;
  ref.bytes = record.bytes;
  ref.referrer = record.referrer;
  ref.user_agent = record.user_agent;
  return ref;
}

std::string PageUrl(std::uint32_t page) {
  return "/pages/p" + std::to_string(page) + ".html";
}

std::optional<std::uint32_t> PageFromUrl(std::string_view url) {
  constexpr std::string_view kPrefix = "/pages/p";
  constexpr std::string_view kSuffix = ".html";
  if (!StartsWith(url, kPrefix) || !EndsWith(url, kSuffix) ||
      url.size() <= kPrefix.size() + kSuffix.size()) {
    return std::nullopt;
  }
  const char* begin = url.data() + kPrefix.size();
  const char* end = url.data() + url.size() - kSuffix.size();
  // Parsing straight into 32 bits rejects an id above 2^32-1
  // (result_out_of_range) instead of truncating it.
  std::uint32_t page = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, page, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return page;
}

std::string ReferrerUrl(std::uint32_t page) {
  return "http://www.site.example" + PageUrl(page);
}

std::optional<std::uint32_t> PageFromReferrer(std::string_view referrer) {
  constexpr std::string_view kHttp = "http://";
  constexpr std::string_view kHttps = "https://";
  if (StartsWith(referrer, kHttp) || StartsWith(referrer, kHttps)) {
    const std::size_t host_start =
        StartsWith(referrer, kHttp) ? kHttp.size() : kHttps.size();
    const std::size_t path_start = referrer.find('/', host_start);
    if (path_start == std::string_view::npos) return std::nullopt;
    referrer = referrer.substr(path_start);
  }
  return PageFromUrl(referrer);
}

std::string AgentIp(std::uint64_t agent_id) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "10.%u.%u.%u",
                static_cast<unsigned>((agent_id / (254 * 254)) % 254),
                static_cast<unsigned>((agent_id / 254) % 254),
                static_cast<unsigned>(agent_id % 254) + 1);
  return buffer;
}

}  // namespace wum
