#include "wum/clf/user_partitioner.h"

#include <algorithm>

namespace wum {

std::string UserKeyFor(std::string_view client_ip, std::string_view user_agent,
                       UserIdentity identity) {
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

Status UserPartitioner::Add(const LogRecordRef& record) {
  const std::optional<std::uint32_t> page = PageFromUrl(record.url);
  if (!page.has_value()) {
    ++skipped_non_page_urls_;
    return Status::OK();
  }
  if (*page >= num_pages_) {
    return Status::InvalidArgument(
        "log references page " + std::to_string(*page) +
        " outside the topology (" + std::to_string(num_pages_) + " pages)");
  }
  key_.clear();
  AppendUserKey(record.client_ip, record.user_agent, identity_, &key_);
  // try_emplace copies the key only for a user's first record.
  by_user_.try_emplace(key_).first->second.push_back(
      PageRequest{static_cast<PageId>(*page), record.timestamp});
  return Status::OK();
}

PartitionResult UserPartitioner::Finish() && {
  PartitionResult result;
  result.skipped_non_page_urls = skipped_non_page_urls_;
  result.streams.reserve(by_user_.size());
  for (auto& [key, requests] : by_user_) {
    std::stable_sort(requests.begin(), requests.end(),
                     [](const PageRequest& a, const PageRequest& b) {
                       return a.timestamp < b.timestamp;
                     });
    result.streams.push_back(UserStream{key, std::move(requests)});
  }
  return result;
}

}  // namespace wum
