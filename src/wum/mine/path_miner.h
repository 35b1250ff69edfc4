// PathMiner: the reactive top-k frequent-path miner of wum::mine — the
// online counterpart of the batch AprioriAll miner, answering "what are
// the hot navigation paths right now" at any moment while the session
// stream runs. Every closed session is decomposed into its contiguous
// page n-grams (lengths min_length..max_length); n-grams that violate
// the site's link topology are discarded (the follow-up paper's
// observation: only topology-valid paths are real navigation), and each
// valid path feeds a per-length SpaceSaving StreamSummary.
//
// MiningSink is the engine's mining state: one PathMiner per shard, each
// behind its own mutex, fed by the thread that drains the shard right
// after each delivery of the shard's run of sessions (outside the emit
// hub's lock, so shards mine in parallel). Queries merge the per-shard summaries (MergeTopK) in shard
// order; each shard's miner sees only its own users' sessions, so the
// answer is deterministic for a given shard count. All public
// MiningSink methods are thread-safe.
//
// See docs/mining.md for the algorithm, error bounds, window semantics
// and the PATTERNS admin protocol.

#ifndef WUM_MINE_PATH_MINER_H_
#define WUM_MINE_PATH_MINER_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "wum/common/result.h"
#include "wum/mine/options.h"
#include "wum/mine/stream_summary.h"
#include "wum/obs/metrics.h"
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
  /// The summary of one configured length (min_length..max_length).
  const StreamSummary& summary(std::size_t length) const {
    return summaries_[length - options_.min_length];
  }

  /// Checkpoint hooks, mirroring the sessionizer SerializeState idiom:
  /// one header frame (config fingerprint + counters) then one frame
  /// per length summary. RestoreState refuses frames written under a
  /// different configuration.
  Status SerializeState(std::vector<std::string>* frames) const;
  Status RestoreState(std::span<const std::string> frames);

 private:
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
};

/// Top-k over miners of one configuration (one per shard, in shard
/// order), merged per length by the rule in docs/mining.md: both
/// SpaceSaving bounds survive, and one miner merges to its own TopK.
/// `k` and `length` as in PathMiner::TopK.
std::vector<PatternEstimate> MergeTopK(std::span<const PathMiner> miners,
                                       std::size_t k = 0,
                                       std::size_t length = 0);

/// PathMiner::PatternsJson over MergeTopK: "sessions" and "paths" are
/// sums over the miners, "capacity" stays the per-summary capacity.
std::string MergedPatternsJson(std::span<const PathMiner> miners,
                               std::size_t k = 0, std::size_t length = 0);

/// The engine's per-shard miners behind one merged query surface (see
/// the file comment). Owns no thread.
class MiningSink {
 public:
  /// One PathMiner per shard; `graph` / `metrics` as in PathMiner (the
  /// miners share the registry's mining.* counters).
  MiningSink(std::size_t num_shards, const MinerOptions& options,
             const WebGraph* graph, obs::MetricRegistry* metrics);

  /// Mines one delivered session into shard `shard`'s miner. Called by
  /// the thread draining that shard, once per session the sink took.
  void AddSession(std::size_t shard, const std::vector<PageId>& pages);

  std::vector<PatternEstimate> TopK(std::size_t k = 0,
                                    std::size_t length = 0) const;
  std::string PatternsJson(std::size_t k = 0, std::size_t length = 0) const;
  std::uint64_t sessions_seen() const;
  /// Paths tracked over every shard and length (the mining.tracked gauge).
  std::size_t tracked() const;
  const MinerOptions& options() const { return miners_[0].options(); }

  /// Each shard's PathMiner::SerializeState frames, concatenated in
  /// shard order (one shard writes exactly PathMiner's layout).
  Status SerializeState(std::vector<std::string>* frames) const;
  /// Refuses a frame count other than shards * (1 + mined lengths).
  Status RestoreState(std::span<const std::string> frames);

 private:
  /// Locks every shard's miner in shard order (a draining thread only
  /// ever holds its own).
  std::vector<std::unique_lock<std::mutex>> LockAll() const;

  std::vector<PathMiner> miners_;            // one per shard, >= 1
  mutable std::vector<std::mutex> mutexes_;  // mutexes_[s] guards miners_[s]
};

}  // namespace wum::mine

#endif  // WUM_MINE_PATH_MINER_H_
