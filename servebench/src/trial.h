// One measured TCP run: an in-process wum::net::LogServer over a 2-shard
// StreamEngine, fed by the load generator over loopback, checked against
// the batch reference once the timed window has closed.

#ifndef SERVEBENCH_TRIAL_H_
#define SERVEBENCH_TRIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "loadgen.h"
#include "reference.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "workload.h"

namespace servebench {

/// A run whose generator ran later than this at the 99th percentile is
/// invalid: its latencies are not reported.
inline constexpr double kMaxGeneratorLagP99Ms = 5.0;

/// Records per OfferBatch, in the TCP runs and in the stage ledger.
inline constexpr std::size_t kBatchRecords = 2048;

/// The engine configuration of every run: websra_serve's defaults
/// (client-IP identity, paper thresholds, kBlock, smart-sra over the
/// site graph, the method/status/extension cleaning filters) with the
/// parts the ledger rows switch on and off.
struct EngineConfig {
  int shards = 2;
  bool filters = true;
  /// false: a no-op sessionizer (use_custom) that absorbs every record.
  bool smart_sra = true;
  bool mining = false;  // set_mining(MiningOptions()), see reference.h
  wum::obs::MetricRegistry* metrics = nullptr;
  wum::DeadLetterQueue* dead_letters = nullptr;
};

wum::EngineOptions MakeEngineOptions(const Input& input,
                                     const EngineConfig& config);

struct TrialOptions {
  SpanRecorder* spans = nullptr;  // null = untraced
  /// Checkpoints (user_churn) go under this directory.
  std::string work_dir;
  /// Faults the self-test injects into the received sessions before the
  /// check runs.
  enum class Fault { kNone, kDropSession, kDuplicateSession, kAlterTimestamp };
  Fault fault = Fault::kNone;
  /// false: stop once RSS is read, with no output check and no latency
  /// (a run that only measures memory).
  bool check = true;
};

struct TrialResult {
  bool ok = false;  // server, engine and generator all succeeded
  std::string error;
  std::uint64_t lines = 0;
  double server_start_s = 0.0;
  double window_s = 0.0;  // first byte sent -> QUIESCE reply
  double ingest_rps = 0.0;
  double cpu_ns_per_record = 0.0;
  double rss_growth_mb = 0.0;

  /// Emit latency: sessions with a closing line (timed from its due
  /// time) and sessions only the end of the stream closed (timed from
  /// the QUIESCE request), counted, and the p50/p99 over every sample
  /// of the first kind (of the second when there are none).
  std::size_t closing_sessions = 0;
  std::size_t flush_sessions = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;

  /// Generator lateness: per line behind its due time (open loop), or
  /// each wait on a full socket (as fast as possible).
  double gen_lag_p99_ms = 0.0;
  bool gen_valid = true;
  /// Share of the machine's CPU time the hypervisor took (steal) over
  /// the timed window.
  double steal_share = 0.0;
  double send_wait_share = 0.0;
  double quiesce_ms = 0.0;
  double patterns_ms = 0.0;     // median PATTERNS round trip (live)
  double scrape_ms = 0.0;       // median GET /metrics round trip (live)
  double scrape_bytes = 0.0;
  std::uint64_t checkpoint_bytes = 0;

  wum::EngineStats total;
  std::vector<wum::EngineStats> shards;
  RunCounts counts;
  CheckResult check;
};

TrialResult RunTrial(const WorkloadSpec& spec, const Input& input,
                     const Reference& reference, const TrialOptions& options);

/// Bytes of the last committed checkpoint epoch under `dir` (0 if none).
std::uint64_t CommittedEpochBytes(const std::string& dir);

}  // namespace servebench

#endif  // SERVEBENCH_TRIAL_H_
