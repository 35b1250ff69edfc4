// StreamSummary: the SpaceSaving (Metwally et al.) stream-summary over
// navigation paths — the bounded-memory core of wum::mine. Replaces the
// stranded online_pattern_counter prototype's std::map + linear-scan
// eviction with the paper's actual structure: nodes hang off
// count-ordered buckets in a doubly-linked chain, so increment and
// min-eviction are O(1) and a query is one ordered walk.
//
// Guarantees (all-time mode, N = paths_processed):
//   * estimates never undercount:  true count <= estimate
//   * bounded overcount:           estimate - error <= true count
//   * any path with true count > N / capacity is tracked.
//
// With a decay window the same bounds hold against the decayed stream
// (counts halve every window_paths offers); see docs/mining.md.
//
// Determinism: every structural decision (victim choice, bucket order)
// is a function of the offer sequence alone, and Serialize writes nodes
// in chain order so Restore rebuilds the identical structure — a
// resumed summary evicts exactly as the uninterrupted one would.

#ifndef WUM_MINE_STREAM_SUMMARY_H_
#define WUM_MINE_STREAM_SUMMARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wum/ckpt/codec.h"
#include "wum/common/result.h"
#include "wum/topology/web_graph.h"

namespace wum::mine {

/// One tracked path and its SpaceSaving estimate.
struct PatternEstimate {
  std::vector<PageId> path;
  /// Estimated occurrence count (never below the true count).
  std::uint64_t count = 0;
  /// Maximum overestimation (count - error <= true count).
  std::uint64_t error = 0;
  /// Monotonic insertion sequence: when this path first entered the
  /// summary. The deterministic tie-breaker of TopK.
  std::uint64_t first_seen = 0;

  friend bool operator==(const PatternEstimate&,
                         const PatternEstimate&) = default;
};

/// A tracked entry with its path still packed (4 bytes LE per page);
/// `key` points into the summary and is valid until it next changes.
struct PackedEstimate {
  std::string_view key;
  std::uint64_t count = 0;
  std::uint64_t error = 0;
  std::uint64_t first_seen = 0;
};

/// The one TopK ordering everywhere (summaries, miner, PATTERNS JSON):
/// count descending, then first-seen sequence ascending, then path
/// lexicographic — deterministic given the counts, pinned by test.
bool PatternOrderBefore(const PatternEstimate& a, const PatternEstimate& b);

/// The first k of `entries` under PatternOrderBefore, with paths
/// unpacked: only the winners pay for a page-id vector.
std::vector<PatternEstimate> RankPacked(std::vector<PackedEstimate> entries,
                                        std::size_t k);

/// SpaceSaving summary over paths of one length (the length itself is
/// the caller's concern — any page-id vector can be offered).
class StreamSummary {
 public:
  /// `capacity` >= 1 bounds the tracked paths; `window_paths` as in
  /// MinerOptions (0 = all time).
  StreamSummary(std::size_t capacity, std::uint64_t window_paths);

  StreamSummary(StreamSummary&&) noexcept = default;
  StreamSummary& operator=(StreamSummary&&) noexcept = default;

  /// Counts one path occurrence. `first_seen_seq` is consumed (stamped
  /// on the entry) only when the path newly enters the summary; returns
  /// true in that case so the caller can advance its sequence counter.
  bool Offer(const PageId* pages, std::size_t length,
             std::uint64_t first_seen_seq);
  bool Offer(const std::vector<PageId>& path, std::uint64_t first_seen_seq) {
    return Offer(path.data(), path.size(), first_seen_seq);
  }

  /// Top-k entries under PatternOrderBefore.
  std::vector<PatternEstimate> TopK(std::size_t k) const;

  /// Appends every tracked entry in ascending count order.
  void AppendPacked(std::vector<PackedEstimate>* out) const;

  /// The page ids of a packed path key.
  static std::vector<PageId> UnpackPath(std::string_view key);

  /// Halves every count and error (dropping zeroed entries) — the decay
  /// step of window mode, also callable directly.
  void Decay();

  /// Paths offered so far, after decay halving (the N of the bound).
  std::uint64_t paths_processed() const { return paths_processed_; }
  std::size_t tracked() const { return tracked_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t window_paths() const { return window_paths_; }
  std::uint64_t decays() const { return decays_; }

  /// Exact structural snapshot / restore (see class comment). Restore
  /// refuses a snapshot taken under a different capacity or window.
  void Serialize(ckpt::Encoder* encoder) const;
  Status Restore(ckpt::Decoder* decoder);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::string key;  // packed path (4 bytes LE per page)
    std::uint64_t hash = 0;  // HashKey(key), cached for probe and evict
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint64_t first_seen = 0;
    std::uint32_t bucket = kNil;
    std::uint32_t prev = kNil;  // within the bucket's node list
    std::uint32_t next = kNil;
  };

  /// One distinct count value; nodes with that count hang off its list.
  /// Buckets chain in ascending count order, head = minimum.
  struct Bucket {
    std::uint64_t count = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Detaching a node can free its (now empty) bucket; the anchors are
  /// where a replacement bucket would link in: `prev` is the surviving
  /// bucket before the insertion point (kNil = chain head), `next` the
  /// one after.
  struct Anchors {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  std::uint32_t AllocNode();
  std::uint32_t AllocBucket(std::uint64_t count);
  void FreeBucket(std::uint32_t b);
  void AppendToBucket(std::uint32_t b, std::uint32_t n);
  Anchors DetachFromBucket(std::uint32_t n);
  void LinkBucketBetween(std::uint32_t b, Anchors anchors);
  /// Moves node `n` (already detached conceptually) to count
  /// `new_count`, reusing or creating the right bucket.
  void PlaceWithCount(std::uint32_t n, std::uint64_t new_count);
  /// Inline mix over 8-byte chunks: on the emit hot path the
  /// out-of-line std::hash call and the node-per-entry map were the
  /// measurable mining cost, so the index is a flat open-addressing
  /// table of node ids (linear probing, load factor <= 1/2).
  static std::uint64_t HashKey(std::string_view key);
  /// The slot holding `key`, or the empty slot where it would insert.
  std::size_t FindSlot(std::string_view key, std::uint64_t hash) const;
  /// Removes `key` (which must be present) with backward-shift
  /// deletion, keeping every survivor reachable from its ideal slot.
  void EraseKey(std::string_view key, std::uint64_t hash);
  /// Appends node `n` at the chain tail assuming non-decreasing counts
  /// (the rebuild path of Decay / Restore).
  void AppendInChainOrder(std::uint32_t n);

  std::size_t capacity_ = 0;
  std::uint64_t window_paths_ = 0;
  std::uint64_t paths_processed_ = 0;
  std::uint64_t offers_since_decay_ = 0;
  std::uint64_t decays_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::uint32_t min_bucket_ = kNil;  // chain head (smallest count)
  std::uint32_t max_bucket_ = kNil;  // chain tail (largest count)
  std::vector<std::uint32_t> slots_;  // node id or kNil; size power of two
  std::size_t slot_mask_ = 0;
  std::size_t tracked_ = 0;
  std::string key_buf_;  // reused per Offer to avoid an allocation
};

}  // namespace wum::mine

#endif  // WUM_MINE_STREAM_SUMMARY_H_
