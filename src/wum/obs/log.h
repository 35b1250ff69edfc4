// wum::obs logging — leveled, thread-safe, structured `key=value`
// lines, rate-limited per call site.
//
// Library code logs through the process-wide `Logger::Default()`, which
// starts at kWarn: healthy runs stay quiet (every library call site is
// on a failure or lifecycle path, never per-record on the happy path),
// and CLI tools raise or lower verbosity with --log-level. The level
// check is a single relaxed atomic load, so a suppressed line costs one
// branch and builds nothing.
//
// Line shape (one line per event, '\n'-terminated, stderr by default):
//
//   ts=1723033200.123456 level=warn site=clf.reject line=7 error="..."
//
// * `site` names the call site (stable identifier, e.g. "ckpt.commit").
// * Values that contain spaces, quotes, '=' or control characters are
//   double-quoted with backslash escapes; bare values stay bare. A
//   consumer can split on spaces outside quotes and then on the first
//   '='.
// * Rate limiting is per site per second: beyond `rate_limit_per_sec`
//   lines from one site in one second, lines are dropped and counted;
//   the first line of a later second carries `suppressed=<n>` so the
//   drop is visible in the stream itself.

#ifndef WUM_OBS_LOG_H_
#define WUM_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "wum/common/result.h"

namespace wum {
namespace obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// "debug" / "info" / "warn" / "error" / "off".
std::string_view LogLevelName(LogLevel level);

/// Parses the names above (for --log-level); InvalidArgument otherwise.
Result<LogLevel> ParseLogLevel(const std::string& text);

/// Thread-safe structured logger. Use `Logger::Default()` unless a test
/// needs an isolated instance.
class Logger {
 public:
  Logger() = default;

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// The process-wide logger every library call site writes to.
  static Logger& Default();

  /// Minimum level that gets written; kWarn initially, kOff silences.
  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  /// Redirects output (default: std::cerr). `out` must outlive the
  /// logger or be reset before it dies; nullptr restores stderr.
  void set_stream(std::ostream* out);

  /// Lines per site per second before suppression kicks in (default
  /// 16; 0 disables rate limiting).
  void set_rate_limit_per_sec(std::uint64_t limit) {
    rate_limit_per_sec_.store(limit, std::memory_order_relaxed);
  }

  /// Wall-clock `ts=` prefix on every line (default on; tests turn it
  /// off for byte-stable output).
  void set_include_timestamp(bool include) {
    include_timestamp_.store(include, std::memory_order_relaxed);
  }

  std::uint64_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t lines_suppressed() const {
    return lines_suppressed_.load(std::memory_order_relaxed);
  }

  /// Emits one finished line (LogLine calls this; prefer LogLine).
  /// `fields` is the pre-rendered " key=value..." suffix.
  void Write(LogLevel level, const char* site, const std::string& fields);

 private:
  struct SiteState {
    std::uint64_t window_sec = 0;   // monotonic second this window covers
    std::uint64_t in_window = 0;    // lines written this window
    std::uint64_t suppressed = 0;   // lines dropped, pending disclosure
  };

  std::atomic<int> min_level_{static_cast<int>(LogLevel::kWarn)};
  std::atomic<std::uint64_t> rate_limit_per_sec_{16};
  std::atomic<bool> include_timestamp_{true};
  std::atomic<std::uint64_t> lines_written_{0};
  std::atomic<std::uint64_t> lines_suppressed_{0};
  std::mutex mutex_;  // guards out_ and sites_
  std::ostream* out_ = nullptr;  // nullptr = std::cerr
  std::map<std::string, SiteState> sites_;
};

/// One structured line under construction; writes on destruction.
/// Usage:
///
///   obs::LogWarn("engine.quarantine")("shard", shard)("records", covered);
///
/// When the level is below the logger's minimum the constructor leaves
/// the line disabled and every appender is a no-op.
class LogLine {
 public:
  LogLine(Logger* logger, LogLevel level, const char* site)
      : logger_(logger != nullptr && logger->Enabled(level) ? logger
                                                            : nullptr),
        level_(level),
        site_(site) {}

  ~LogLine() {
    if (logger_ != nullptr) logger_->Write(level_, site_, fields_);
  }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  LogLine(LogLine&& other) noexcept
      : logger_(other.logger_),
        level_(other.level_),
        site_(other.site_),
        fields_(std::move(other.fields_)) {
    other.logger_ = nullptr;
  }
  LogLine& operator=(LogLine&&) = delete;

  LogLine& operator()(std::string_view key, std::string_view value);
  LogLine& operator()(std::string_view key, const char* value) {
    return (*this)(key, std::string_view(value));
  }
  LogLine& operator()(std::string_view key, const std::string& value) {
    return (*this)(key, std::string_view(value));
  }
  LogLine& operator()(std::string_view key, std::uint64_t value);
  LogLine& operator()(std::string_view key, std::int64_t value);
  LogLine& operator()(std::string_view key, int value) {
    return (*this)(key, static_cast<std::int64_t>(value));
  }
  LogLine& operator()(std::string_view key, unsigned value) {
    return (*this)(key, static_cast<std::uint64_t>(value));
  }
  LogLine& operator()(std::string_view key, double value);
  LogLine& operator()(std::string_view key, bool value);

 private:
  Logger* logger_;
  LogLevel level_;
  const char* site_;
  std::string fields_;
};

/// Shorthands on Logger::Default().
inline LogLine LogDebug(const char* site) {
  return LogLine(&Logger::Default(), LogLevel::kDebug, site);
}
inline LogLine LogInfo(const char* site) {
  return LogLine(&Logger::Default(), LogLevel::kInfo, site);
}
inline LogLine LogWarn(const char* site) {
  return LogLine(&Logger::Default(), LogLevel::kWarn, site);
}
inline LogLine LogError(const char* site) {
  return LogLine(&Logger::Default(), LogLevel::kError, site);
}

}  // namespace obs
}  // namespace wum

#endif  // WUM_OBS_LOG_H_
