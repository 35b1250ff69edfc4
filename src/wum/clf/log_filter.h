// Data-cleaning filters: the "relevant information is filtered from the
// logs" step of the paper's data processing phase. Classic WUM cleaning
// drops embedded-resource requests (images, stylesheets), failed requests,
// non-page methods and robot traffic before session reconstruction.

#ifndef WUM_CLF_LOG_FILTER_H_
#define WUM_CLF_LOG_FILTER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "wum/clf/log_record.h"

namespace wum {

/// Predicate over log records; true means "keep". Filters read the
/// zero-copy view, so every caller runs them on parsed refs before any
/// copy.
class LogFilter {
 public:
  virtual ~LogFilter() = default;
  virtual std::string name() const = 0;
  virtual bool Keep(const LogRecordRef& record) const = 0;
};

/// Keeps records whose URL path (query string stripped) does NOT end with
/// one of the given extensions, compared ASCII-case-insensitively without
/// allocating. Default set: common embedded resources. Any string works
/// as an extension, with or without its dot; "" blocks every record.
///
/// The extensions are bucketed by their last byte, so a path costs one
/// table probe plus a compare against each extension sharing its
/// lowercased last byte: a ".html" page meets none of the default set.
class ExtensionFilter : public LogFilter {
 public:
  ExtensionFilter();
  explicit ExtensionFilter(std::vector<std::string> blocked_extensions);

  std::string name() const override { return "extension"; }
  bool Keep(const LogRecordRef& record) const override;

 private:
  /// Non-empty extensions, lowercased and ordered by last byte.
  std::vector<std::string> blocked_extensions_;
  /// blocked_extensions_[bucket_begin_[b], bucket_begin_[b + 1]) end in
  /// byte b.
  std::array<std::uint32_t, 257> bucket_begin_{};
  /// The list held "", which every path ends with.
  bool blocks_every_path_ = false;
};

/// Keeps successful page loads: status in [200, 299] or 304 (cache
/// revalidation still witnesses a page view).
class StatusFilter : public LogFilter {
 public:
  std::string name() const override { return "status"; }
  bool Keep(const LogRecordRef& record) const override;
};

/// Keeps GET requests only (the method carrying page navigations).
class MethodFilter : public LogFilter {
 public:
  std::string name() const override { return "method"; }
  bool Keep(const LogRecordRef& record) const override;
};

/// Drops requests for "/robots.txt" and from clients that requested it
/// (a standard crawler fingerprint). Observe every record of a first
/// pass over the log before filtering, so a crawler's page views logged
/// before its /robots.txt request are dropped too.
class RobotFilter : public LogFilter {
 public:
  std::string name() const override { return "robot"; }
  bool Keep(const LogRecordRef& record) const override;

  /// Registers `record`'s client as a crawler if it requests
  /// /robots.txt. Copies the IP; `record` need not outlive the call.
  void Observe(const LogRecordRef& record);

 private:
  std::set<std::string, std::less<>> robot_ips_;
};

/// Applies a conjunction of filters, tallying drops per filter.
class FilterChain {
 public:
  void Add(std::unique_ptr<LogFilter> filter);

  /// True when `record` passes every filter; otherwise tallies the drop
  /// against the first filter that rejects it.
  bool Keep(const LogRecordRef& record);

  struct FilterStats {
    std::string name;
    std::uint64_t dropped = 0;
  };
  const std::vector<FilterStats>& stats() const { return stats_; }

  /// The conventional cleaning chain: method + status + extension.
  static FilterChain Standard();

 private:
  std::vector<std::unique_ptr<LogFilter>> filters_;
  std::vector<FilterStats> stats_;
};

}  // namespace wum

#endif  // WUM_CLF_LOG_FILTER_H_
