// Configuration of the online frequent-path miner (wum::mine). Split
// from path_miner.h so EngineOptions can store a MinerOptions by value
// without pulling the miner implementation into every engine user.

#ifndef WUM_MINE_OPTIONS_H_
#define WUM_MINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "wum/common/result.h"

namespace wum::mine {

/// Tuning of one PathMiner: which path lengths are mined, how many
/// paths each per-length SpaceSaving summary tracks, and how "now" is
/// defined (all time vs. a decayed recent window).
struct MinerOptions {
  /// Default answer size of TopK / the PATTERNS admin command.
  std::size_t top_k = 10;
  /// Contiguous path lengths mined: every length in
  /// [min_length, max_length] gets its own summary.
  std::size_t min_length = 2;
  std::size_t max_length = 3;
  /// Tracked paths per length (the SpaceSaving capacity; the error
  /// bound of a summary is paths_processed / capacity). 0 derives
  /// max(1024, 8 * top_k).
  std::size_t capacity = 0;
  /// 0 mines all time. Otherwise every summary halves its counts after
  /// this many offered paths (exponential decay), so estimates weight
  /// the recent window. The engine's summaries are per shard, so each
  /// decays after its own shard's offers; see docs/mining.md.
  std::uint64_t window_paths = 0;

  /// The capacity each summary actually uses (resolves the 0 default).
  std::size_t EffectiveCapacity() const {
    if (capacity != 0) return capacity;
    const std::size_t derived = 8 * top_k;
    return derived < 1024 ? 1024 : derived;
  }
};

/// Rejects zero k / capacity-after-derivation, an empty or inverted
/// length range, min_length < 1, a window smaller than the capacity
/// (which would decay tracked paths faster than they can accumulate).
Status ValidateMinerOptions(const MinerOptions& options);

}  // namespace wum::mine

#endif  // WUM_MINE_OPTIONS_H_
