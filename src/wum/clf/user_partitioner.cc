#include "wum/clf/user_partitioner.h"

#include <algorithm>
#include <map>

namespace wum {

std::string UserKeyFor(const std::string& client_ip,
                       const std::string& user_agent, UserIdentity identity) {
  std::string key;
  AppendUserKey(client_ip, user_agent, identity, &key);
  return key;
}

void AppendUserKey(std::string_view client_ip, std::string_view user_agent,
                   UserIdentity identity, std::string* out) {
  out->append(client_ip);
  if (identity == UserIdentity::kClientIp) return;
  // \x1f (unit separator) cannot occur in an IP and is vanishingly rare
  // in user-agent strings, so the composite key is unambiguous.
  out->push_back('\x1f');
  out->append(user_agent);
}

std::pair<std::string_view, std::string_view> SplitUserKey(
    std::string_view key, UserIdentity identity) {
  const std::size_t split = identity == UserIdentity::kClientIp
                                ? std::string_view::npos
                                : key.find('\x1f');
  if (split == std::string_view::npos) return {key, {}};
  return {key.substr(0, split), key.substr(split + 1)};
}

Result<PartitionResult> PartitionByUser(const std::vector<LogRecord>& records,
                                        std::size_t num_pages,
                                        UserIdentity identity) {
  PartitionResult result;
  std::map<std::string, UserStream> by_user;
  for (const LogRecord& record : records) {
    const std::optional<std::uint32_t> page = PageFromUrl(record.url);
    if (!page.has_value()) {
      ++result.skipped_non_page_urls;
      continue;
    }
    if (*page >= num_pages) {
      return Status::InvalidArgument(
          "log references page " + std::to_string(*page) +
          " outside the topology (" + std::to_string(num_pages) + " pages)");
    }
    const std::string key =
        UserKeyFor(record.client_ip, record.user_agent, identity);
    UserStream& stream = by_user[key];
    if (stream.requests.empty()) {
      stream.user_key = key;
      stream.client_ip = record.client_ip;
      if (identity == UserIdentity::kClientIpAndUserAgent) {
        stream.user_agent = record.user_agent;
      }
    }
    stream.requests.push_back(
        PageRequest{static_cast<PageId>(*page), record.timestamp});
  }
  result.streams.reserve(by_user.size());
  for (auto& [key, stream] : by_user) {
    std::stable_sort(stream.requests.begin(), stream.requests.end(),
                     [](const PageRequest& a, const PageRequest& b) {
                       return a.timestamp < b.timestamp;
                     });
    result.streams.push_back(std::move(stream));
  }
  return result;
}

}  // namespace wum
