// Data-cleaning filters: the "relevant information is filtered from the
// logs" step of the paper's data processing phase. Classic WUM cleaning
// drops embedded-resource requests (images, stylesheets), failed requests,
// non-page methods and robot traffic before session reconstruction.

#ifndef WUM_CLF_LOG_FILTER_H_
#define WUM_CLF_LOG_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "wum/clf/log_record.h"

namespace wum {

/// Predicate over log records; true means "keep". Filters read the
/// zero-copy view, so the streaming engine runs them on parsed refs
/// before any copy and batch code passes ViewOf(record).
class LogFilter {
 public:
  virtual ~LogFilter() = default;
  virtual std::string name() const = 0;
  virtual bool Keep(const LogRecordRef& record) const = 0;
};

/// Keeps records whose URL path (query string stripped) does NOT end with
/// one of the given extensions, compared case-insensitively without
/// allocating. Default set: common embedded resources.
class ExtensionFilter : public LogFilter {
 public:
  ExtensionFilter();
  explicit ExtensionFilter(std::vector<std::string> blocked_extensions);

  std::string name() const override { return "extension"; }
  bool Keep(const LogRecordRef& record) const override;

 private:
  std::vector<std::string> blocked_extensions_;  // lowercase, with dot
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
/// (a standard crawler fingerprint). Stateful: feed records in log order.
class RobotFilter : public LogFilter {
 public:
  std::string name() const override { return "robot"; }
  bool Keep(const LogRecordRef& record) const override;

  /// Registers crawler IPs from a first pass over the log.
  void ObserveForRobots(const std::vector<LogRecord>& records);

 private:
  std::vector<std::string> robot_ips_;  // sorted
};

/// Applies a conjunction of filters, tallying drops per filter.
class FilterChain {
 public:
  void Add(std::unique_ptr<LogFilter> filter);

  /// Returns the records passing every filter, in order.
  std::vector<LogRecord> Apply(const std::vector<LogRecord>& records);

  struct FilterStats {
    std::string name;
    std::uint64_t dropped = 0;
  };
  const std::vector<FilterStats>& stats() const { return stats_; }
  std::size_t size() const { return filters_.size(); }

  /// The conventional cleaning chain: method + status + extension.
  static FilterChain Standard();

 private:
  std::vector<std::unique_ptr<LogFilter>> filters_;
  std::vector<FilterStats> stats_;
};

}  // namespace wum

#endif  // WUM_CLF_LOG_FILTER_H_
