#include "wum/clf/log_filter.h"

#include "wum/common/string_util.h"

namespace wum {
namespace {

/// EndsWith for an already-lowercase `suffix`, ignoring the ASCII case
/// of `text`, without allocating.
bool EndsWithLowercase(std::string_view text, std::string_view suffix) {
  if (text.size() < suffix.size()) return false;
  const std::size_t offset = text.size() - suffix.size();
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    char c = text[offset + i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != suffix[i]) return false;
  }
  return true;
}

}  // namespace

ExtensionFilter::ExtensionFilter()
    : ExtensionFilter({".gif", ".jpg", ".jpeg", ".png", ".ico", ".css", ".js",
                       ".swf", ".bmp"}) {}

ExtensionFilter::ExtensionFilter(std::vector<std::string> blocked_extensions)
    : blocked_extensions_(std::move(blocked_extensions)) {
  for (std::string& ext : blocked_extensions_) ext = AsciiToLower(ext);
}

bool ExtensionFilter::Keep(const LogRecordRef& record) const {
  // Compare against the path only (strip any query string).
  std::string_view path = record.url;
  const std::size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);
  for (const std::string& ext : blocked_extensions_) {
    if (EndsWithLowercase(path, ext)) return false;
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
