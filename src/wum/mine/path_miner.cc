#include "wum/mine/path_miner.h"

#include <algorithm>
#include <utility>

namespace wum::mine {

namespace {

/// Guards the miner state frames against a slot mix-up (the framed file
/// already carries a file-level magic; this tags the header frame).
constexpr std::uint64_t kMinerStateMagic = 0x454e494d;  // "MINE"

}  // namespace

Status ValidateMinerOptions(const MinerOptions& options) {
  if (options.top_k == 0) {
    return Status::InvalidArgument("mining top_k must be >= 1");
  }
  if (options.min_length < 1) {
    return Status::InvalidArgument("mining min_length must be >= 1");
  }
  if (options.max_length < options.min_length) {
    return Status::InvalidArgument(
        "mining max_length must be >= min_length (got " +
        std::to_string(options.max_length) + " < " +
        std::to_string(options.min_length) + ")");
  }
  const std::size_t capacity = options.EffectiveCapacity();
  if (capacity < options.top_k) {
    return Status::InvalidArgument(
        "mining capacity (" + std::to_string(capacity) +
        ") must be >= top_k (" + std::to_string(options.top_k) + ")");
  }
  if (options.window_paths != 0 && options.window_paths < capacity) {
    return Status::InvalidArgument(
        "mining window_paths (" + std::to_string(options.window_paths) +
        ") must be 0 or >= capacity (" + std::to_string(capacity) +
        "), else tracked paths decay away faster than they accumulate");
  }
  return Status::OK();
}

PathMiner::PathMiner(const MinerOptions& options, const WebGraph* graph,
                     obs::MetricRegistry* metrics)
    : options_(options),
      graph_(graph),
      m_sessions_(obs::CounterIn(metrics, "mining.sessions")),
      m_paths_(obs::CounterIn(metrics, "mining.paths")),
      m_topology_rejects_(obs::CounterIn(metrics, "mining.topology_rejects")) {
  const std::size_t capacity = options_.EffectiveCapacity();
  summaries_.reserve(options_.max_length - options_.min_length + 1);
  for (std::size_t length = options_.min_length;
       length <= options_.max_length; ++length) {
    summaries_.emplace_back(capacity, options_.window_paths);
  }
}

void PathMiner::AddSession(const std::vector<PageId>& pages) {
  ++sessions_seen_;
  m_sessions_.Increment();
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  // A path is real navigation only when every hop is a hyperlink; one
  // probe per hop covers every overlapping n-gram of the session.
  if (graph_ != nullptr && pages.size() >= 2) {
    hop_ok_.resize(pages.size() - 1);
    for (std::size_t i = 0; i + 1 < pages.size(); ++i) {
      hop_ok_[i] = graph_->HasLink(pages[i], pages[i + 1]) ? 1 : 0;
    }
  }
  for (std::size_t length = options_.min_length;
       length <= options_.max_length; ++length) {
    if (pages.size() < length) break;
    StreamSummary& summary = summaries_[length - options_.min_length];
    for (std::size_t start = 0; start + length <= pages.size(); ++start) {
      bool valid = true;
      if (graph_ != nullptr) {
        for (std::size_t i = 0; i + 1 < length; ++i) {
          if (!hop_ok_[start + i]) {
            valid = false;
            break;
          }
        }
      }
      if (!valid) {
        ++rejected;
        continue;
      }
      if (summary.Offer(pages.data() + start, length, next_first_seen_)) {
        ++next_first_seen_;
      }
      ++offered;
    }
  }
  m_paths_.Increment(offered);
  m_topology_rejects_.Increment(rejected);
}

std::uint64_t PathMiner::paths_processed() const {
  std::uint64_t total = 0;
  for (const StreamSummary& summary : summaries_) {
    total += summary.paths_processed();
  }
  return total;
}

std::size_t PathMiner::tracked() const {
  std::size_t total = 0;
  for (const StreamSummary& summary : summaries_) total += summary.tracked();
  return total;
}

std::vector<PatternEstimate> PathMiner::TopK(std::size_t k,
                                             std::size_t length) const {
  return MergeTopK(std::span<const PathMiner>(this, 1), k, length);
}

std::string PathMiner::PatternsJson(std::size_t k, std::size_t length) const {
  return MergedPatternsJson(std::span<const PathMiner>(this, 1), k, length);
}

Status PathMiner::SerializeState(std::vector<std::string>* frames) const {
  ckpt::Encoder header;
  header.PutUvarint(kMinerStateMagic);
  header.PutUvarint(options_.min_length);
  header.PutUvarint(options_.max_length);
  header.PutUvarint(sessions_seen_);
  header.PutUvarint(next_first_seen_);
  frames->push_back(header.Release());
  for (const StreamSummary& summary : summaries_) {
    ckpt::Encoder encoder;
    summary.Serialize(&encoder);
    frames->push_back(encoder.Release());
  }
  return Status::OK();
}

Status PathMiner::RestoreState(std::span<const std::string> frames) {
  if (frames.size() != summaries_.size() + 1) {
    return Status::ParseError(
        "mining state holds " + std::to_string(frames.size()) +
        " frames, expected " + std::to_string(summaries_.size() + 1));
  }
  ckpt::Decoder header(frames[0]);
  WUM_ASSIGN_OR_RETURN(const std::uint64_t magic, header.GetUvarint());
  if (magic != kMinerStateMagic) {
    return Status::ParseError("mining state header magic mismatch");
  }
  WUM_ASSIGN_OR_RETURN(const std::uint64_t min_length, header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(const std::uint64_t max_length, header.GetUvarint());
  if (min_length != options_.min_length || max_length != options_.max_length) {
    return Status::InvalidArgument(
        "mining state was written for lengths " + std::to_string(min_length) +
        ".." + std::to_string(max_length) + ", configured " +
        std::to_string(options_.min_length) + ".." +
        std::to_string(options_.max_length));
  }
  WUM_ASSIGN_OR_RETURN(sessions_seen_, header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(next_first_seen_, header.GetUvarint());
  WUM_RETURN_NOT_OK(header.ExpectEnd());
  for (std::size_t i = 0; i < summaries_.size(); ++i) {
    ckpt::Decoder decoder(frames[i + 1]);
    WUM_RETURN_NOT_OK(summaries_[i].Restore(&decoder));
    WUM_RETURN_NOT_OK(decoder.ExpectEnd());
  }
  return Status::OK();
}

namespace {

/// Appends one length's merged entries over `miners` to `out`
/// (MergeTopK's rule). Works in place on packed keys, so a query makes
/// no allocation per entry.
void MergeLength(std::span<const PathMiner> miners, std::size_t length,
                 std::vector<PackedEstimate>* out) {
  const std::uint64_t shards = miners.size();
  std::vector<PackedEstimate>& all = *out;
  const std::size_t first = all.size();
  std::vector<std::uint64_t> floor(shards, 0);
  std::uint64_t floor_total = 0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    const StreamSummary& summary = miners[s].summary(length);
    const std::size_t begin = all.size();
    summary.AppendPacked(&all);
    // What shard s adds for a path it does not track: once its summary
    // is full, its minimum count (the first appended; no untracked path
    // occurred more often there), before that 0 (it never evicted).
    if (summary.tracked() == summary.capacity()) {
      floor[s] = all[begin].count;
      floor_total += floor[s];
    }
    // The merged first-seen; s stays recoverable as first_seen % shards.
    for (std::size_t i = begin; i < all.size(); ++i) {
      all[i].first_seen = all[i].first_seen * shards + s;
    }
  }
  std::sort(all.begin() + first, all.end(),
            [](const PackedEstimate& a, const PackedEstimate& b) {
              return a.key != b.key ? a.key < b.key
                                    : a.first_seen < b.first_seen;
            });
  std::size_t kept = first;
  for (std::size_t begin = first; begin < all.size();) {
    PackedEstimate merged = all[begin];  // its first_seen is the minimum
    std::uint64_t untracked_floor =
        floor_total - floor[merged.first_seen % shards];
    std::size_t end = begin + 1;
    for (; end < all.size() && all[end].key == merged.key; ++end) {
      merged.count += all[end].count;
      merged.error += all[end].error;
      untracked_floor -= floor[all[end].first_seen % shards];
    }
    merged.count += untracked_floor;
    merged.error += untracked_floor;
    all[kept++] = merged;
    begin = end;
  }
  all.resize(kept);
}

}  // namespace

std::vector<PatternEstimate> MergeTopK(std::span<const PathMiner> miners,
                                       std::size_t k, std::size_t length) {
  const MinerOptions& options = miners.front().options();
  if (k == 0) k = options.top_k;
  std::size_t tracked = 0;
  for (const PathMiner& miner : miners) tracked += miner.tracked();
  std::vector<PackedEstimate> merged;
  merged.reserve(tracked);
  for (std::size_t l = options.min_length; l <= options.max_length; ++l) {
    if (length == 0 || length == l) MergeLength(miners, l, &merged);
  }
  return RankPacked(std::move(merged), k);
}

std::string MergedPatternsJson(std::span<const PathMiner> miners,
                               std::size_t k, std::size_t length) {
  const MinerOptions& options = miners.front().options();
  if (k == 0) k = options.top_k;
  std::uint64_t sessions = 0;
  std::uint64_t paths = 0;
  for (const PathMiner& miner : miners) {
    sessions += miner.sessions_seen();
    paths += miner.paths_processed();
  }
  const std::vector<PatternEstimate> top = MergeTopK(miners, k, length);
  std::string json = "{\"k\":" + std::to_string(k) +
                     ",\"length\":" + std::to_string(length) +
                     ",\"sessions\":" + std::to_string(sessions) +
                     ",\"paths\":" + std::to_string(paths) +
                     ",\"capacity\":" +
                     std::to_string(options.EffectiveCapacity()) +
                     ",\"patterns\":[";
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i != 0) json += ',';
    json += "{\"path\":[";
    for (std::size_t p = 0; p < top[i].path.size(); ++p) {
      if (p != 0) json += ',';
      json += std::to_string(top[i].path[p]);
    }
    json += "],\"count\":" + std::to_string(top[i].count) +
            ",\"error\":" + std::to_string(top[i].error) + "}";
  }
  json += "]}";
  return json;
}

MiningSink::MiningSink(std::size_t num_shards, const MinerOptions& options,
                       const WebGraph* graph, obs::MetricRegistry* metrics)
    : mutexes_(num_shards) {
  miners_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    miners_.emplace_back(options, graph, metrics);
  }
}

void MiningSink::AddSession(std::size_t shard,
                            const std::vector<PageId>& pages) {
  std::lock_guard<std::mutex> lock(mutexes_[shard]);
  miners_[shard].AddSession(pages);
}

std::vector<std::unique_lock<std::mutex>> MiningSink::LockAll() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  for (std::mutex& mutex : mutexes_) locks.emplace_back(mutex);
  return locks;
}

std::vector<PatternEstimate> MiningSink::TopK(std::size_t k,
                                              std::size_t length) const {
  const auto locks = LockAll();
  return MergeTopK(miners_, k, length);
}

std::string MiningSink::PatternsJson(std::size_t k, std::size_t length) const {
  const auto locks = LockAll();
  return MergedPatternsJson(miners_, k, length);
}

std::uint64_t MiningSink::sessions_seen() const {
  const auto locks = LockAll();
  std::uint64_t total = 0;
  for (const PathMiner& miner : miners_) total += miner.sessions_seen();
  return total;
}

std::size_t MiningSink::tracked() const {
  const auto locks = LockAll();
  std::size_t total = 0;
  for (const PathMiner& miner : miners_) total += miner.tracked();
  return total;
}

Status MiningSink::SerializeState(std::vector<std::string>* frames) const {
  const auto locks = LockAll();
  for (const PathMiner& miner : miners_) {
    WUM_RETURN_NOT_OK(miner.SerializeState(frames));
  }
  return Status::OK();
}

Status MiningSink::RestoreState(std::span<const std::string> frames) {
  const std::size_t per_shard =
      1 + options().max_length - options().min_length + 1;
  if (frames.size() != miners_.size() * per_shard) {
    return Status::ParseError(
        "mining state holds " + std::to_string(frames.size()) +
        " frames, expected " + std::to_string(miners_.size() * per_shard) +
        " (" + std::to_string(miners_.size()) + " shards)");
  }
  const auto locks = LockAll();
  for (std::size_t s = 0; s < miners_.size(); ++s) {
    WUM_RETURN_NOT_OK(
        miners_[s].RestoreState(frames.subspan(s * per_shard, per_shard)));
  }
  return Status::OK();
}

}  // namespace wum::mine
