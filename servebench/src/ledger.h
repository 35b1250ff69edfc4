// The stage ledger: a workload's input replayed in process through
// successively longer prefixes of the serving pipeline, one engine shard,
// no sockets. Each row's CPU cost per input line, minus the row before,
// is one layer's cost; their sum is the composed total the TCP run can
// be held against.
//
//   parse     ClfParser::ParseChunk over 64 KiB line-aligned chunks
//   offer     + StreamEngine::OfferBatch + Finish, no-op sessionizer
//   filter    + the standard cleaning filters (method, status, extension)
//   smartsra  + incremental Smart-SRA instead of the no-op
//   mine      smartsra + set_mining (default MinerOptions)
//   ckpt      smartsra + StreamEngine::Checkpoint at the workload's
//             cadence (churn), or once halfway through the input
//   metrics   smartsra + a MetricRegistry on the engine
//
// The last three each extend `smartsra` on their own, so a workload's
// composed total adds exactly the ones its TCP configuration turns on.

#ifndef SERVEBENCH_LEDGER_H_
#define SERVEBENCH_LEDGER_H_

#include <string>
#include <vector>

#include "host.h"
#include "workload.h"

namespace servebench {

struct LedgerRow {
  std::string name;
  double cpu_ns_per_record = 0.0;   // process CPU per input line
  double wall_ns_per_record = 0.0;
  double delta_ns_per_record = 0.0;  // over the row it extends
};

struct Ledger {
  bool ok = false;
  std::string error;
  std::vector<LedgerRow> rows;
  /// Sum of the rows the workload's TCP run exercises.
  double composed_ns_per_record = 0.0;
  double checkpoint_ms = 0.0;          // median Checkpoint call
  std::uint64_t checkpoint_bytes = 0;  // last committed epoch
  double patterns_ms = 0.0;            // PatternsJson after the mine row
  double scrape_ms = 0.0;              // Snapshot + Prometheus render
  double scrape_bytes = 0.0;
  /// Wall throughput with a registry divided by without.
  double metrics_on_ratio = 0.0;

  double Delta(const std::string& row) const;
  /// Human-readable table (one row per line).
  std::string Table(double tcp_ns_per_record) const;
  std::string Json(double tcp_ns_per_record) const;
};

/// Runs every row `repeats` times and keeps each row's median.
Ledger RunLedger(const WorkloadSpec& spec, const Input& input,
                 const std::string& work_dir, int repeats,
                 SpanRecorder* spans);

}  // namespace servebench

#endif  // SERVEBENCH_LEDGER_H_
