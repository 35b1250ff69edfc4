// PathMiner: the reactive top-k frequent-path miner of wum::mine — the
// online counterpart of the batch AprioriAll miner, answering "what are
// the hot navigation paths right now" at any moment while the session
// stream runs. Every closed session is decomposed into its contiguous
// page n-grams (lengths min_length..max_length); n-grams that violate
// the site's link topology are discarded (the follow-up paper's
// observation: only topology-valid paths are real navigation), and each
// valid path feeds a per-length SpaceSaving StreamSummary.
//
// MiningSink is the engine-facing tap: a SessionSink that forwards to
// the caller's downstream sink unchanged and buffers page sequences for
// batched hand-off to a dedicated miner thread, so the serialized emit
// path only ever copies page ids — the SpaceSaving work happens off the
// hot path (a bounded FIFO queue applies backpressure instead of
// growing without limit). Batches are always mined in hand-off (=
// emission) order whichever thread drains them, which keeps the miner
// state deterministic for a given session stream. All public MiningSink
// methods are thread-safe: shard workers call Accept through the emit
// hub while the admin thread queries PatternsJson (queries drain the
// queue first, so they see every session accepted before the call).
//
// See docs/mining.md for the algorithm, error bounds, window semantics
// and the PATTERNS admin protocol.

#ifndef WUM_MINE_PATH_MINER_H_
#define WUM_MINE_PATH_MINER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "wum/common/result.h"
#include "wum/mine/options.h"
#include "wum/mine/stream_summary.h"
#include "wum/obs/metrics.h"
#include "wum/stream/session_sink.h"
#include "wum/topology/web_graph.h"

namespace wum::mine {

/// Single-threaded miner core (MiningSink adds the locking).
class PathMiner {
 public:
  /// `graph` may be null: no topology filter (every contiguous n-gram
  /// counts). `metrics` may be null (disabled handles). Both must
  /// outlive the miner. `options` must already validate.
  PathMiner(const MinerOptions& options, const WebGraph* graph,
            obs::MetricRegistry* metrics);

  /// Mines one closed session's page sequence.
  void AddSession(const std::vector<PageId>& pages);

  /// Top-k estimates under PatternOrderBefore. `length` selects one
  /// summary (must be inside the configured range); 0 merges every
  /// length before the sort. k == 0 uses options().top_k.
  std::vector<PatternEstimate> TopK(std::size_t k = 0,
                                    std::size_t length = 0) const;

  /// Deterministic one-line JSON for the PATTERNS admin command:
  /// {"k":..,"length":..,"sessions":..,"paths":..,"capacity":..,
  ///  "patterns":[{"path":[..],"count":..,"error":..},..]}
  /// Key order is fixed and no floats are emitted, so byte equality is
  /// meaningful (the kill-and-resume smoke depends on it).
  std::string PatternsJson(std::size_t k = 0, std::size_t length = 0) const;

  std::uint64_t sessions_seen() const { return sessions_seen_; }
  /// Total valid paths offered across lengths (post-decay halving).
  std::uint64_t paths_processed() const;
  std::size_t tracked() const;
  const MinerOptions& options() const { return options_; }

  /// Checkpoint hooks, mirroring the sessionizer SerializeState idiom:
  /// one header frame (config fingerprint + counters) then one frame
  /// per length summary. RestoreState refuses frames written under a
  /// different configuration.
  Status SerializeState(std::vector<std::string>* frames) const;
  Status RestoreState(std::span<const std::string> frames);

 private:
  const StreamSummary& SummaryFor(std::size_t length) const {
    return summaries_[length - options_.min_length];
  }

  MinerOptions options_;
  const WebGraph* graph_;
  std::vector<StreamSummary> summaries_;  // index = length - min_length
  std::uint64_t sessions_seen_ = 0;
  /// First-seen sequence source, shared across lengths so the tie-break
  /// totally orders merged TopK output.
  std::uint64_t next_first_seen_ = 0;
  /// Reused per session: hop_ok_[i] records whether pages[i] ->
  /// pages[i+1] is a hyperlink, so overlapping n-grams share one
  /// HasLink probe per hop instead of re-testing it per n-gram.
  std::vector<unsigned char> hop_ok_;

  obs::Counter m_sessions_;
  obs::Counter m_paths_;
  obs::Counter m_topology_rejects_;
  obs::Gauge g_tracked_;
};

/// The emit-hub tap: counts every closed session, forwards to an
/// optional downstream sink, mines on a dedicated thread. Thread-safe.
class MiningSink : public SessionSink {
 public:
  /// `downstream` may be null (sessions are only mined). `graph` /
  /// `metrics` as in PathMiner. Starts the miner thread.
  MiningSink(SessionSink* downstream, const MinerOptions& options,
             const WebGraph* graph, obs::MetricRegistry* metrics);
  /// Stops the miner thread. Queued batches that were never queried or
  /// serialized are dropped — owners query before destroying.
  ~MiningSink() override;

  /// Forwards the session downstream first and buffers its page
  /// sequence for mining (handing off when the batch fills) only on
  /// success, so retried or refused sessions never skew the counts.
  /// Blocks only when the batch queue is full (sustained overload).
  Status Accept(const std::string& client_ip, Session session) override;

  /// Drains the pending batch and the whole queue into the miner.
  /// Queries and checkpoint hooks flush implicitly; an explicit call
  /// makes mid-run state deterministic in tests.
  void Flush();

  std::vector<PatternEstimate> TopK(std::size_t k = 0,
                                    std::size_t length = 0) const;
  std::string PatternsJson(std::size_t k = 0, std::size_t length = 0) const;
  std::uint64_t sessions_seen() const;
  /// Batches waiting for the miner thread (0..kMaxQueuedBatches, the
  /// partial pending batch excluded) — the mining-queue-depth gauge
  /// scrape probes read. Thread-safe.
  std::size_t queued_batches() const;
  const MinerOptions& options() const { return miner_.options(); }

  Status SerializeState(std::vector<std::string>* frames) const;
  Status RestoreState(std::span<const std::string> frames);

 private:
  /// Sessions buffered under backpressure: kMaxQueuedBatches *
  /// batch_sessions page sequences, then Accept blocks.
  static constexpr std::size_t kMaxQueuedBatches = 16;

  /// Pops and mines the oldest queued batch; false when the queue is
  /// empty. Pop and mine happen under one hold of miner_mutex_, so
  /// batches are mined strictly in hand-off order no matter which
  /// thread (worker, query, or backpressured producer) drains them.
  bool MineOneBatch() const;
  /// Hands the partial pending batch to the queue and mines until the
  /// queue is empty (the implicit flush of queries and checkpoints).
  void DrainAll() const;
  void WorkerLoop();

  SessionSink* downstream_;

  /// queue_mutex_ guards pending_/queue_/stop_ (the hand-off state);
  /// miner_mutex_ serializes the actual mining and guards miner_. Both
  /// are mutable so const queries can drain buffered-but-uncounted
  /// state into the miner, which does not change what the miner
  /// logically represents.
  mutable std::mutex queue_mutex_;
  mutable std::condition_variable work_available_;
  mutable std::condition_variable space_available_;
  mutable std::vector<std::vector<PageId>> pending_;
  mutable std::deque<std::vector<std::vector<PageId>>> queue_;
  bool stop_ = false;

  mutable std::mutex miner_mutex_;
  mutable PathMiner miner_;
  mutable obs::Counter m_batches_;
  obs::Histogram h_flush_us_;
  std::thread worker_;  // last member: starts after everything exists
};

}  // namespace wum::mine

#endif  // WUM_MINE_PATH_MINER_H_
