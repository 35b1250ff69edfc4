// servebench: end-to-end serving benchmark for websra.
//
//   servebench --workload bulk_replay|live_nasa_mix|user_churn --seed N
//              --seconds S --trace 0|1 [--work-dir DIR]
//   servebench --self-test [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics over repeated TCP runs of the
// seeded workload; --trace 1 makes one untraced and one traced TCP run
// plus the stage ledger and reports the per-layer metrics. Every run
// prints a host stamp, one "metric <name> <value> <unit>" line per
// metric, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --self-test shows the output check passing a clean run and catching a
// dropped, a duplicated and an altered session and a split user.
// See README.md in this directory.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "ledger.h"
#include "reference.h"
#include "trial.h"
#include "workload.h"

namespace servebench {
namespace {

/// Set-ups measured per untraced run; setup_s adds their median.
constexpr int kSetupRepeats = 3;
/// Counted trials in an untraced run: at least this many, then until
/// their timed windows add up to --seconds. When fewer pass the gates
/// below, the metrics come from this many least-stolen trials instead.
constexpr int kMinTrials = 3;
/// Forked TCP runs per untraced run that give rss_growth_mb (see
/// RunRssProbe); the metric is their median. A probe in which the host
/// stole CPU (over kMaxTrialStealShare, below) reads higher: queues and
/// buffers fill deeper while a thread is stalled. Such probes are made
/// again, up to twice this many in all, and the metric comes from this
/// many least-stolen probes.
constexpr int kRssProbes = 6;
/// A trial during which the hypervisor took more than this share of the
/// machine's CPU time (steal) is left out of the metrics: steal stalls
/// whichever thread it hits for milliseconds. On the 4-vCPU reference
/// host, live_nasa_mix trials with 0.4-0.8% steal showed p99 latencies
/// 1.5-3 times the usual, and trials with 1-7% up to 60 times; a single
/// 10 ms steal tick in a 1.25 s trial (0.2%) already raised its p99 by
/// about a third. /proc/stat counts in 10 ms ticks, so a trial shorter
/// than 1.6 s (every bulk_replay and live_nasa_mix trial) passes only
/// with no steal tick at all.
constexpr double kMaxTrialStealShare = 0.0015;
/// Trials are added until the counted ones' windows add up to --seconds,
/// or until the run is this old. The host's steal comes in episodes of
/// a minute or so; a run that starts in one keeps trying until it ends
/// or this deadline passes. The deadline also bounds the time a whole
/// benchmark session takes (a run must end within 180 s).
constexpr double kTrialStartDeadlineS = 55.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_test = false;
  std::string work_dir = ".";
  std::string git_commit;
  std::string source_digest;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      *error = "bad argument '" + flag + "'";
      return false;
    }
    values[flag.substr(2)] = argv[++i];
  }
  for (const auto& [name, value] : values) {
    char* end = nullptr;
    if (name == "workload") {
      args->workload = value;
    } else if (name == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (name == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (name == "trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (name == "work-dir") {
      args->work_dir = value;
    } else if (name == "git-commit") {
      args->git_commit = value;
    } else if (name == "source-digest") {
      args->source_digest = value;
    } else {
      *error = "unknown flag --" + name;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for --" + name + ": '" + value + "'";
      return false;
    }
  }
  if (!args->self_test && args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (args->seconds <= 0 || (args->trace != 0 && args->trace != 1)) {
    *error = "--seconds must be > 0 and --trace 0 or 1";
    return false;
  }
  return true;
}

/// Metrics in print order, each with its unit.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("metric %s %.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

  std::string Json() const {
    std::ostringstream out;
    out.precision(10);
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
          << "\": {\"value\": " << entries_[i].value << ", \"unit\": \""
          << entries_[i].unit << "\"}";
    }
    return out.str() + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const MetricSet& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
}

struct Setup {
  Input input;
  Reference reference;
  /// Process CPU time of generation + reference. Both run on this one
  /// thread, so it equals their wall time when the host steals nothing,
  /// and it does not grow when the host does.
  double cpu_seconds = 0.0;
};

wum::Result<Setup> MakeSetup(const WorkloadSpec& spec, std::uint64_t seed,
                             const GenerateOptions& options,
                             SpanRecorder* spans) {
  Setup setup;
  const std::int64_t start = ProcessCpuNs();
  {
    ScopedSpan span(spans, "gen", "generate_workload");
    WUM_ASSIGN_OR_RETURN(setup.input, Generate(spec, seed, options));
  }
  {
    ScopedSpan span(spans, "session", "batch_reference");
    span.set_count(setup.input.page_views.size());
    WUM_ASSIGN_OR_RETURN(setup.reference,
                         BuildReference(setup.input, spec.live));
  }
  setup.cpu_seconds = static_cast<double>(ProcessCpuNs() - start) / 1e9;
  return setup;
}

/// One trial's summary line, for humans reading the log.
void PrintTrial(const char* label, const TrialResult& r) {
  std::printf(
      "trial %s lines=%llu window_s=%.3f ingest_rps=%.0f cpu_ns/rec=%.1f "
      "rss_growth_mb=%.1f closing_sessions=%zu flush_sessions=%zu "
      "latency_p50_ms=%.3f latency_p99_ms=%.3f gen_lag_p99_ms=%.3f "
      "gen_valid=%d steal_share=%.4f check=%s\n",
      label, static_cast<unsigned long long>(r.lines), r.window_s,
      r.ingest_rps, r.cpu_ns_per_record, r.rss_growth_mb, r.closing_sessions,
      r.flush_sessions, r.latency_p50_ms, r.latency_p99_ms, r.gen_lag_p99_ms,
      r.gen_valid ? 1 : 0, r.steal_share, r.check.ok ? "pass" : "FAIL");
  for (const std::string& problem : r.check.problems) {
    std::printf("check: %s\n", problem.c_str());
  }
}

/// What an RSS probe's child sends back.
struct ProbeNumbers {
  bool ok = false;
  double rss_growth_mb = 0.0;
  double steal_share = 0.0;
};

/// One unchecked TCP run in a child forked from this process, for its
/// RSS growth only: every probe starts from the heap set-up left. Trials
/// run one after another in one process reuse heap pages earlier trials
/// left resident and read lower by varying amounts. Forking costs the
/// child copy-on-write faults, which would show in its latency and CPU,
/// so those come from the in-process trials, which are also the checked
/// ones. This process must be single-threaded here (every trial joins
/// its threads).
wum::Result<ProbeNumbers> RunRssProbe(const WorkloadSpec& spec,
                                      const Setup& setup,
                                      TrialOptions options) {
  options.check = false;
  int fds[2];
  if (pipe(fds) != 0) {
    return wum::Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return wum::Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    close(fds[0]);
    const TrialResult child =
        RunTrial(spec, setup.input, setup.reference, options);
    ProbeNumbers n;
    n.ok = child.ok;
    n.rss_growth_mb = child.rss_growth_mb;
    n.steal_share = child.steal_share;
    // The numbers, then the error message.
    std::string out(reinterpret_cast<const char*>(&n), sizeof(n));
    out += child.error;
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t wrote = write(fds[1], out.data() + sent, out.size() - sent);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) _exit(1);
      sent += static_cast<std::size_t>(wrote);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buffer[4096];
  for (;;) {
    const ssize_t got = read(fds[0], buffer, sizeof(buffer));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    in.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (in.size() < sizeof(ProbeNumbers) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return wum::Status::Internal(
        "RSS probe ended without a result (wait status " +
        std::to_string(status) + ")");
  }
  ProbeNumbers n;
  std::memcpy(&n, in.data(), sizeof(n));
  if (!n.ok) {
    return wum::Status::Internal("RSS probe: " + in.substr(sizeof(n)));
  }
  return n;
}

int RunMeasured(const Args& args, const WorkloadSpec& spec) {
  const std::int64_t run_start = NowNs();
  const CpuTicks ticks_start = ReadCpuTicks();
  SpanRecorder no_spans(false);
  std::vector<double> setup_s;
  double batch_reconstruct_s = 0.0;
  Setup setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup = Setup();  // free the previous copy before building the next
    wum::Result<Setup> made = MakeSetup(spec, args.seed, {}, &no_spans);
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*made);
    setup_s.push_back(setup.cpu_seconds);
    batch_reconstruct_s = setup.reference.batch_reconstruct_s;
  }
  std::printf("setup lines=%llu users=%u page_views=%zu sessions=%llu "
              "generate+reference_cpu_s=%.3f\n",
              static_cast<unsigned long long>(setup.input.num_lines),
              setup.input.num_users, setup.input.page_views.size(),
              static_cast<unsigned long long>(setup.reference.total_sessions),
              Median(setup_s));

  TrialOptions options;
  options.work_dir = args.work_dir;
  // The probes run first, while this process's heap is still the one
  // set-up left.
  std::vector<ProbeNumbers> probes;
  int clean_probes = 0;
  while (clean_probes < kRssProbes &&
         probes.size() < 2 * static_cast<std::size_t>(kRssProbes)) {
    const wum::Result<ProbeNumbers> probe = RunRssProbe(spec, setup, options);
    if (!probe.ok()) {
      std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
      return 1;
    }
    std::printf("rss_probe %zu rss_growth_mb=%.1f steal_share=%.4f\n",
                probes.size(), probe->rss_growth_mb, probe->steal_share);
    if (probe->steal_share <= kMaxTrialStealShare) ++clean_probes;
    probes.push_back(*probe);
  }
  std::stable_sort(probes.begin(), probes.end(),
                   [](const ProbeNumbers& a, const ProbeNumbers& b) {
                     return a.steal_share < b.steal_share;
                   });
  std::vector<double> rss;
  for (int k = 0; k < kRssProbes; ++k) rss.push_back(probes[k].rss_growth_mb);
  const auto counted = [](const TrialResult& r) {
    return r.gen_valid && r.steal_share <= kMaxTrialStealShare;
  };
  std::vector<TrialResult> trials;
  int counted_trials = 0;
  double counted_s = 0.0;
  while (counted_trials < kMinTrials || counted_s < args.seconds) {
    const double age_s = static_cast<double>(NowNs() - run_start) / 1e9;
    if (!trials.empty() && age_s > kTrialStartDeadlineS) break;
    TrialResult r = RunTrial(spec, setup.input, setup.reference, options);
    PrintTrial(std::to_string(trials.size()).c_str(), r);
    if (!r.ok) {
      std::fprintf(stderr, "trial failed: %s\n", r.error.c_str());
      return 1;
    }
    if (counted(r)) {
      ++counted_trials;
      counted_s += r.window_s;
    }
    trials.push_back(std::move(r));
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t gen_invalid = 0;
  std::size_t steal_invalid = 0;
  for (const TrialResult& r : trials) {
    correct = correct && r.check.ok;
    attempted += r.lines;
    failed += r.check.failed_records;
    if (!r.gen_valid) {
      ++gen_invalid;
    } else if (!counted(r)) {
      ++steal_invalid;
    }
  }
  // The metrics come from the counted trials. When fewer than kMinTrials
  // passed, the host stole time (or held the generator back) until the
  // deadline: the run falls back to the kMinTrials trials the generator
  // kept up in with the least steal, or the least steal of all when it
  // kept up in none, and says so.
  std::vector<const TrialResult*> used;
  for (const TrialResult& r : trials) {
    if (counted(r)) used.push_back(&r);
  }
  const bool fallback = used.size() < static_cast<std::size_t>(kMinTrials);
  const bool gen_fallback = gen_invalid == trials.size();
  if (fallback) {
    used.clear();
    for (const TrialResult& r : trials) used.push_back(&r);
    std::stable_sort(used.begin(), used.end(),
                     [](const TrialResult* a, const TrialResult* b) {
                       if (a->gen_valid != b->gen_valid) return a->gen_valid;
                       return a->steal_share < b->steal_share;
                     });
    used.resize(std::min(used.size(), static_cast<std::size_t>(kMinTrials)));
  }
  std::vector<double> server_start, rps, cpu, p50, p99;
  std::size_t closing_samples = 0;
  std::size_t flush_sessions = 0;
  for (const TrialResult* r : used) {
    server_start.push_back(r->server_start_s);
    rps.push_back(r->ingest_rps);
    cpu.push_back(r->cpu_ns_per_record);
    closing_samples += r->closing_sessions;
    flush_sessions += r->flush_sessions;
    p50.push_back(r->latency_p50_ms);
    p99.push_back(r->latency_p99_ms);
  }
  const double steal = StealShare(ticks_start, ReadCpuTicks());
  std::printf("host %s\n",
              HostStampJson(ReadHostStamp(args.git_commit, args.source_digest),
                            steal)
                  .c_str());
  std::printf("trials %zu used=%zu generator_behind=%zu steal_over_%.2f%%=%zu%s "
              "closing_line_samples=%zu end_of_stream_sessions=%zu "
              "(latency timed from %s)\n",
              trials.size(), used.size(), gen_invalid,
              kMaxTrialStealShare * 100, steal_invalid,
              !fallback ? ""
              : gen_fallback
                  ? " (run invalid: the generator fell behind on every trial; "
                    "least-stolen trials used)"
                  : " (too few under the steal limit: least-stolen used)",
              closing_samples, flush_sessions,
              closing_samples > 0 ? "each closing line's due time"
                                  : "the QUIESCE request");
  std::printf("batch_reconstruct_ns_per_record %.1f\n",
              batch_reconstruct_s * 1e9 /
                  static_cast<double>(setup.input.num_lines));
  MetricSet metrics;
  metrics.Add("setup_s", Median(setup_s) + Median(server_start), "s");
  metrics.Add("ingest_rps", Median(rps), "1/s");
  metrics.Add("cpu_ns_per_record", Median(cpu), "ns");
  // Each trial's p50/p99 over all its samples, summarized over the
  // counted trials. Closing-line samples: the median, because a host noise
  // episode now and then spoils one trial's tail. End-of-stream samples
  // (user_churn) all come from the trial's one QUIESCE flush, whose speed
  // varies by about +-30% from trial to trial without outliers: there the
  // mean of the few trials is the steadier figure.
  const auto summary = closing_samples > 0 ? Median : Mean;
  metrics.Add("emit_latency_p50_ms", summary(p50), "ms");
  metrics.Add("emit_latency_p99_ms", summary(p99), "ms");
  // On user_churn the checkpoints leave 10 or 47 MB more resident in some
  // probes and not in others, so there the median jumps between levels.
  metrics.Add("rss_growth_mb", Median(rss), "MB");
  metrics.Print();
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  const CpuTicks ticks_start = ReadCpuTicks();
  SpanRecorder spans(true);
  wum::Result<Setup> made = MakeSetup(spec, args.seed, {}, &spans);
  if (!made.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  const Setup setup = std::move(*made);

  TrialOptions untraced;
  untraced.work_dir = args.work_dir;
  const TrialResult base =
      RunTrial(spec, setup.input, setup.reference, untraced);
  PrintTrial("untraced", base);
  TrialOptions traced = untraced;
  traced.spans = &spans;
  const TrialResult r = RunTrial(spec, setup.input, setup.reference, traced);
  PrintTrial("traced", r);
  if (!base.ok || !r.ok) {
    std::fprintf(stderr, "trial failed: %s\n",
                 (!base.ok ? base.error : r.error).c_str());
    return 1;
  }
  const int repeats = setup.input.num_lines > 1500000 ? 1 : 3;
  const Ledger ledger =
      RunLedger(spec, setup.input, args.work_dir, repeats, &spans);
  if (!ledger.ok) {
    std::fprintf(stderr, "%s\n", ledger.error.c_str());
    return 1;
  }
  std::fputs(ledger.Table(base.cpu_ns_per_record).c_str(), stdout);

  const std::string stem =
      args.work_dir + "/" + spec.name + "-seed" + std::to_string(args.seed);
  if (!spans.WriteChromeTrace(stem + ".trace.json")) {
    std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
    return 1;
  }
  if (std::FILE* out = std::fopen((stem + ".ledger.json").c_str(), "w")) {
    std::fprintf(out, "%s\n", ledger.Json(base.cpu_ns_per_record).c_str());
    std::fclose(out);
  }
  std::printf("spans %zu written to %s.trace.json; layers:", spans.size(),
              stem.c_str());
  for (const std::string& layer : spans.Layers()) {
    std::printf(" %s(self %.1f ms)", layer.c_str(),
                static_cast<double>(spans.LayerSelfNs(layer)) / 1e6);
  }
  std::printf("\n");

  double max_in = 0.0;
  double sum_in = 0.0;
  for (const wum::EngineStats& shard : r.shards) {
    max_in = std::max(max_in, static_cast<double>(shard.records_in));
    sum_in += static_cast<double>(shard.records_in);
  }
  const double lines = static_cast<double>(setup.input.num_lines);
  const double steal = StealShare(ticks_start, ReadCpuTicks());
  std::printf("host %s\n",
              HostStampJson(ReadHostStamp(args.git_commit, args.source_digest),
                            steal)
                  .c_str());

  MetricSet m;
  m.Add("net.send_wait_share", r.send_wait_share, "share");
  m.Add("net.quiesce_ms", r.quiesce_ms, "ms");
  m.Add("net.tcp_ns_per_record",
        base.cpu_ns_per_record - ledger.composed_ns_per_record, "ns");
  m.Add("clf.parse_ns_per_record", ledger.Delta("parse"), "ns");
  m.Add("clf.filter_ns_per_record", ledger.Delta("filter"), "ns");
  m.Add("stream.offer_ns_per_record", ledger.Delta("offer"), "ns");
  m.Add("stream.dropped_share",
        static_cast<double>(r.total.records_dropped) /
            static_cast<double>(std::max<std::uint64_t>(1, r.total.records_in)),
        "share");
  m.Add("stream.blocked_enqueues", static_cast<double>(r.total.blocked_enqueues),
        "count");
  m.Add("stream.queue_high_watermark",
        static_cast<double>(r.total.queue_high_watermark), "count");
  m.Add("stream.shard_skew",
        sum_in > 0 ? max_in / (sum_in / static_cast<double>(r.shards.size()))
                   : 0.0,
        "ratio");
  m.Add("session.smartsra_ns_per_record", ledger.Delta("smartsra"), "ns");
  m.Add("session.batch_ns_per_record",
        setup.reference.batch_reconstruct_s * 1e9 / lines, "ns");
  m.Add("mine.ns_per_record", ledger.Delta("mine"), "ns");
  m.Add("mine.patterns_ms", spec.live ? r.patterns_ms : ledger.patterns_ms,
        "ms");
  m.Add("ckpt.checkpoint_ms", ledger.checkpoint_ms, "ms");
  m.Add("ckpt.bytes",
        static_cast<double>(spec.checkpoint_every > 0 ? r.checkpoint_bytes
                                                      : ledger.checkpoint_bytes),
        "bytes");
  m.Add("obs.metrics_on_ratio", ledger.metrics_on_ratio, "ratio");
  m.Add("obs.scrape_ms", spec.live ? r.scrape_ms : ledger.scrape_ms, "ms");
  m.Add("obs.scrape_bytes", spec.live ? r.scrape_bytes : ledger.scrape_bytes,
        "bytes");
  m.Add("ledger.composed_ns_per_record", ledger.composed_ns_per_record, "ns");
  m.Add("ledger.uncovered_share",
        (base.cpu_ns_per_record - ledger.composed_ns_per_record) /
            base.cpu_ns_per_record,
        "share");
  m.Add("gen.lag_p99_ms", r.gen_lag_p99_ms, "ms");
  m.Add("proc.steal_share", steal, "share");
  m.Add("trace.overhead_share", r.window_s / base.window_s - 1.0, "share");
  m.Print();
  PrintResult(base.check.ok && r.check.ok, base.lines + r.lines,
              base.check.failed_records + r.check.failed_records, m);
  return 0;
}

/// Runs a small bulk_replay clean and with each injected fault; the
/// check must pass the first and fail every other.
int RunSelfTest(const Args& args) {
  const WorkloadSpec spec = *FindWorkload("bulk_replay");
  GenerateOptions small;
  small.scale = 0.05;
  SpanRecorder no_spans(false);
  wum::Result<Setup> clean = MakeSetup(spec, args.seed, small, &no_spans);
  GenerateOptions split = small;
  split.split_one_user = true;
  wum::Result<Setup> broken = MakeSetup(spec, args.seed, split, &no_spans);
  if (!clean.ok() || !broken.ok()) {
    std::fprintf(stderr, "self-test setup failed\n");
    return 1;
  }
  struct Case {
    const char* name;
    TrialOptions::Fault fault;
    const Setup* setup;
    bool want_pass;
  };
  const Case cases[] = {
      {"clean", TrialOptions::Fault::kNone, &*clean, true},
      {"dropped_session", TrialOptions::Fault::kDropSession, &*clean, false},
      {"duplicated_session", TrialOptions::Fault::kDuplicateSession, &*clean,
       false},
      {"altered_timestamp", TrialOptions::Fault::kAlterTimestamp, &*clean,
       false},
      {"split_user", TrialOptions::Fault::kNone, &*broken, false},
  };
  int wrong = 0;
  for (const Case& c : cases) {
    TrialOptions options;
    options.work_dir = args.work_dir;
    options.fault = c.fault;
    const TrialResult r =
        RunTrial(spec, c.setup->input, c.setup->reference, options);
    const bool passed = r.ok && r.check.ok;
    const bool as_expected = passed == c.want_pass;
    if (!as_expected) ++wrong;
    std::printf("self-test %-20s check=%s expected=%s -> %s\n", c.name,
                passed ? "pass" : "fail", c.want_pass ? "pass" : "fail",
                as_expected ? "ok" : "WRONG");
    for (const std::string& problem : r.check.problems) {
      std::printf("  %s\n", problem.c_str());
    }
  }
  std::printf("self-test %s: %d of %zu cases as expected\n",
              wrong == 0 ? "passed" : "FAILED",
              static_cast<int>(std::size(cases)) - wrong, std::size(cases));
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }
  if (args.self_test) return RunSelfTest(args);
  wum::Result<WorkloadSpec> spec = FindWorkload(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "servebench: %s (workloads: bulk_replay, "
                 "live_nasa_mix, user_churn)\n",
                 spec.status().ToString().c_str());
    return 2;
  }
  return args.trace == 1 ? RunTraced(args, *spec) : RunMeasured(args, *spec);
}
