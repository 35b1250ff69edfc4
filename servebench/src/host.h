// Process and host measurement helpers for the serving benchmark: clocks,
// CPU accounting, resident memory, CPU steal, the host stamp, a small
// in-memory span recorder and sample statistics.

#ifndef SERVEBENCH_HOST_H_
#define SERVEBENCH_HOST_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

/// Process CPU time (user + system, every thread) in nanoseconds.
std::int64_t ProcessCpuNs();

/// CPU time of the calling thread in nanoseconds.
std::int64_t ThreadCpuNs();

/// Resident set size in bytes (/proc/self/statm).
std::uint64_t RssBytes();

/// Returns freed heap pages to the kernel so RSS baselines are not
/// inflated by the previous trial's garbage.
void TrimHeap();

/// Whole-host CPU tick counters from /proc/stat: all ticks and steal.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Steal share between two readings (0 when no ticks elapsed).
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// Facts about the machine and build that every run prints, so a number
/// can be traced to the host it was measured on.
struct HostStamp {
  long nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string git_commit;
  std::string source_digest;
};
HostStamp ReadHostStamp(const std::string& git_commit,
                        const std::string& source_digest);
/// One-line JSON; `steal_share` is the share over the whole run.
std::string HostStampJson(const HostStamp& stamp, double steal_share);

/// Spans recorded from the benchmark's own code around each call into a
/// websra layer. Kept in memory while the run measures, written out when
/// it ends. Disabled recorders cost one branch per span.
class SpanRecorder {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = none
    std::uint32_t thread = 0;  // 0 = benchmark main thread
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t count = 0;  // records (or bytes) the call covered
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint32_t Add(const char* layer, const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t count = 0,
                    std::uint32_t parent = 0, std::uint32_t thread = 0);

  /// Reserves an id for a parent span whose end is not known yet; close
  /// it with Close.
  std::uint32_t Open(const char* layer, const char* name,
                     std::uint32_t parent = 0, std::uint32_t thread = 0);
  void Close(std::uint32_t id, std::uint64_t count = 0);

  /// Layers that recorded at least one span, sorted.
  std::vector<std::string> Layers() const;

  /// Self time of every span of `layer` (duration minus the part its
  /// child spans cover), summed, in nanoseconds.
  std::int64_t LayerSelfNs(const std::string& layer) const;

  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

  std::size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index = id - 1
};

/// RAII span: records [construction, destruction) into `recorder`.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* layer, const char* name,
             std::uint32_t parent = 0)
      : recorder_(recorder), layer_(layer), name_(name), parent_(parent),
        start_ns_(recorder->enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (recorder_->enabled()) {
      recorder_->Add(layer_, name_, start_ns_, NowNs(), count_, parent_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t count) { count_ = count; }

 private:
  SpanRecorder* recorder_;
  const char* layer_;
  const char* name_;
  std::uint32_t parent_;
  std::int64_t start_ns_;
  std::uint64_t count_ = 0;
};

/// Quantile of `values` (0 <= q <= 1, linear interpolation); sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

}  // namespace servebench

#endif  // SERVEBENCH_HOST_H_
