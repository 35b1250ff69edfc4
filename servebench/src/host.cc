#include "host.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <sstream>

namespace servebench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() { malloc_trim(0); }

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  if (label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already inside user, so only the first eight add up.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

HostStamp ReadHostStamp(const std::string& git_commit,
                        const std::string& source_digest) {
  HostStamp stamp;
  stamp.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        stamp.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (stamp.cpu_model.empty()) stamp.cpu_model = "unknown";
#if defined(__clang__)
  stamp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  stamp.compiler = "gcc " __VERSION__;
#else
  stamp.compiler = "unknown";
#endif
  stamp.build_type = SERVEBENCH_BUILD_TYPE;
  stamp.git_commit = git_commit.empty() ? "none" : git_commit;
  stamp.source_digest = source_digest.empty() ? "none" : source_digest;
  return stamp;
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string HostStampJson(const HostStamp& stamp, double steal_share) {
  std::ostringstream out;
  out << "{\"nproc\": " << stamp.nproc
      << ", \"cpu_model\": " << JsonString(stamp.cpu_model)
      << ", \"compiler\": " << JsonString(stamp.compiler)
      << ", \"build_type\": " << JsonString(stamp.build_type)
      << ", \"git_commit\": " << JsonString(stamp.git_commit)
      << ", \"source_digest\": " << JsonString(stamp.source_digest)
      << ", \"steal_share\": " << steal_share << "}";
  return out.str();
}

std::uint32_t SpanRecorder::Add(const char* layer, const char* name,
                                std::int64_t start_ns, std::int64_t end_ns,
                                std::uint64_t count, std::uint32_t parent,
                                std::uint32_t thread) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(
      Span{layer, name, id, parent, thread, start_ns, end_ns, count});
  return id;
}

std::uint32_t SpanRecorder::Open(const char* layer, const char* name,
                                 std::uint32_t parent, std::uint32_t thread) {
  const std::int64_t now = NowNs();
  return Add(layer, name, now, now, 0, parent, thread);
}

void SpanRecorder::Close(std::uint32_t id, std::uint64_t count) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = now;
  spans_[id - 1].count = count;
}

std::vector<std::string> SpanRecorder::Layers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::string> layers;
  for (const Span& span : spans_) layers.insert(span.layer);
  return {layers.begin(), layers.end()};
}

std::int64_t SpanRecorder::LayerSelfNs(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::int64_t self = 0;
  for (const Span& span : spans_) {
    if (layer != span.layer) continue;
    self += std::max<std::int64_t>(
        0, span.end_ns - span.start_ns - child_ns[span.id]);
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"count\":%llu}}\n",
                 i == 0 ? "" : ",", span.name, span.layer, span.thread,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.id, span.parent,
                 static_cast<unsigned long long>(span.count));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

}  // namespace servebench
