#include "wum/clf/log_filter.h"

#include <algorithm>

#include "wum/common/string_util.h"

namespace wum {
namespace {

/// One byte of AsciiToLower: A-Z lowered, every other byte as is.
char AsciiLowerByte(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// EndsWith for an already-lowercase `suffix`, ignoring the ASCII case
/// of `text`, without allocating.
bool EndsWithLowercase(std::string_view text, std::string_view suffix) {
  if (text.size() < suffix.size()) return false;
  const std::size_t offset = text.size() - suffix.size();
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (AsciiLowerByte(text[offset + i]) != suffix[i]) return false;
  }
  return true;
}

}  // namespace

ExtensionFilter::ExtensionFilter()
    : ExtensionFilter({".gif", ".jpg", ".jpeg", ".png", ".ico", ".css", ".js",
                       ".swf", ".bmp"}) {}

ExtensionFilter::ExtensionFilter(std::vector<std::string> blocked_extensions) {
  for (const std::string& ext : blocked_extensions) {
    if (ext.empty()) {
      blocks_every_path_ = true;
    } else {
      blocked_extensions_.push_back(AsciiToLower(ext));
    }
  }
  std::sort(blocked_extensions_.begin(), blocked_extensions_.end(),
            [](const std::string& a, const std::string& b) {
              return static_cast<unsigned char>(a.back()) <
                     static_cast<unsigned char>(b.back());
            });
  std::size_t next = 0;
  for (std::size_t byte = 0; byte < 256; ++byte) {
    bucket_begin_[byte] = static_cast<std::uint32_t>(next);
    while (next < blocked_extensions_.size() &&
           static_cast<unsigned char>(blocked_extensions_[next].back()) ==
               byte) {
      ++next;
    }
  }
  bucket_begin_[256] = static_cast<std::uint32_t>(next);
}

bool ExtensionFilter::Keep(const LogRecordRef& record) const {
  if (blocks_every_path_) return false;
  // Compare against the path only (strip any query string).
  std::string_view path = record.url;
  const std::size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);
  if (path.empty()) return true;
  const auto last = static_cast<unsigned char>(AsciiLowerByte(path.back()));
  for (std::uint32_t i = bucket_begin_[last]; i < bucket_begin_[last + 1];
       ++i) {
    if (EndsWithLowercase(path, blocked_extensions_[i])) return false;
  }
  return true;
}

bool StatusFilter::Keep(const LogRecordRef& record) const {
  return (record.status_code >= 200 && record.status_code < 300) ||
         record.status_code == 304;
}

bool MethodFilter::Keep(const LogRecordRef& record) const {
  return record.method == HttpMethod::kGet;
}

void RobotFilter::Observe(const LogRecordRef& record) {
  if (record.url == "/robots.txt") robot_ips_.emplace(record.client_ip);
}

bool RobotFilter::Keep(const LogRecordRef& record) const {
  return record.url != "/robots.txt" && !robot_ips_.contains(record.client_ip);
}

void FilterChain::Add(std::unique_ptr<LogFilter> filter) {
  stats_.push_back(FilterStats{filter->name(), 0});
  filters_.push_back(std::move(filter));
}

bool FilterChain::Keep(const LogRecordRef& record) {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (!filters_[i]->Keep(record)) {
      ++stats_[i].dropped;
      return false;
    }
  }
  return true;
}

FilterChain FilterChain::Standard() {
  FilterChain chain;
  chain.Add(std::make_unique<MethodFilter>());
  chain.Add(std::make_unique<StatusFilter>());
  chain.Add(std::make_unique<ExtensionFilter>());
  return chain;
}

}  // namespace wum
