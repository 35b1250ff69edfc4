#include "wum/mine/stream_summary.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace wum::mine {

bool PatternOrderBefore(const PatternEstimate& a, const PatternEstimate& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
  return a.path < b.path;
}

StreamSummary::StreamSummary(std::size_t capacity, std::uint64_t window_paths)
    : capacity_(capacity == 0 ? 1 : capacity), window_paths_(window_paths) {
  nodes_.reserve(capacity_);
  std::size_t slot_count = 8;
  while (slot_count < capacity_ * 2) slot_count <<= 1;
  slots_.assign(slot_count, kNil);
  slot_mask_ = slot_count - 1;
}

std::uint64_t StreamSummary::HashKey(std::string_view key) {
  std::uint64_t h =
      0x9e3779b97f4a7c15ull ^ (key.size() * 0xbf58476d1ce4e5b9ull);
  const char* p = key.data();
  std::size_t n = key.size();
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    h = (h ^ chunk) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  if (n != 0) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, p, n);
    h = (h ^ chunk) * 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 29;
  }
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 32);
}

std::size_t StreamSummary::FindSlot(std::string_view key,
                                    std::uint64_t hash) const {
  // Terminates because the table never fills: tracked_ <= capacity_ and
  // the constructor sizes the table to at least 2 * capacity_ slots.
  std::size_t slot = hash & slot_mask_;
  while (true) {
    const std::uint32_t n = slots_[slot];
    if (n == kNil) return slot;
    if (nodes_[n].hash == hash && nodes_[n].key == key) return slot;
    slot = (slot + 1) & slot_mask_;
  }
}

void StreamSummary::EraseKey(std::string_view key, std::uint64_t hash) {
  std::size_t hole = FindSlot(key, hash);
  std::size_t i = (hole + 1) & slot_mask_;
  while (slots_[i] != kNil) {
    // An entry fills the hole only if its probe path runs through it,
    // i.e. the hole lies between the entry's ideal slot and its
    // current one (cyclically); otherwise it would become unreachable.
    const std::size_t ideal = nodes_[slots_[i]].hash & slot_mask_;
    if (((i - ideal) & slot_mask_) >= ((i - hole) & slot_mask_)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
    i = (i + 1) & slot_mask_;
  }
  slots_[hole] = kNil;
  --tracked_;
}

std::vector<PageId> StreamSummary::UnpackPath(std::string_view key) {
  std::vector<PageId> path(key.size() / 4);
  for (std::size_t i = 0; i < path.size(); ++i) {
    path[i] = static_cast<PageId>(static_cast<unsigned char>(key[i * 4 + 0])) |
              (static_cast<PageId>(static_cast<unsigned char>(key[i * 4 + 1]))
               << 8) |
              (static_cast<PageId>(static_cast<unsigned char>(key[i * 4 + 2]))
               << 16) |
              (static_cast<PageId>(static_cast<unsigned char>(key[i * 4 + 3]))
               << 24);
  }
  return path;
}

std::uint32_t StreamSummary::AllocNode() {
  if (!free_nodes_.empty()) {
    const std::uint32_t n = free_nodes_.back();
    free_nodes_.pop_back();
    return n;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

std::uint32_t StreamSummary::AllocBucket(std::uint64_t count) {
  std::uint32_t b;
  if (!free_buckets_.empty()) {
    b = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    buckets_.emplace_back();
    b = static_cast<std::uint32_t>(buckets_.size() - 1);
  }
  buckets_[b] = Bucket{};
  buckets_[b].count = count;
  return b;
}

void StreamSummary::FreeBucket(std::uint32_t b) { free_buckets_.push_back(b); }

void StreamSummary::AppendToBucket(std::uint32_t b, std::uint32_t n) {
  Node& node = nodes_[n];
  Bucket& bucket = buckets_[b];
  node.bucket = b;
  node.prev = bucket.tail;
  node.next = kNil;
  if (bucket.tail != kNil) {
    nodes_[bucket.tail].next = n;
  } else {
    bucket.head = n;
  }
  bucket.tail = n;
}

StreamSummary::Anchors StreamSummary::DetachFromBucket(std::uint32_t n) {
  Node& node = nodes_[n];
  const std::uint32_t b = node.bucket;
  Bucket& bucket = buckets_[b];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    bucket.head = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    bucket.tail = node.prev;
  }
  node.bucket = kNil;
  node.prev = kNil;
  node.next = kNil;
  if (bucket.head != kNil) return Anchors{b, bucket.next};
  // The bucket emptied: unlink it from the chain; the gap it leaves is
  // where a replacement bucket would link in.
  const Anchors anchors{bucket.prev, bucket.next};
  if (bucket.prev != kNil) {
    buckets_[bucket.prev].next = bucket.next;
  } else {
    min_bucket_ = bucket.next;
  }
  if (bucket.next != kNil) {
    buckets_[bucket.next].prev = bucket.prev;
  } else {
    max_bucket_ = bucket.prev;
  }
  FreeBucket(b);
  return anchors;
}

void StreamSummary::LinkBucketBetween(std::uint32_t b, Anchors anchors) {
  Bucket& bucket = buckets_[b];
  bucket.prev = anchors.prev;
  bucket.next = anchors.next;
  if (anchors.prev != kNil) {
    buckets_[anchors.prev].next = b;
  } else {
    min_bucket_ = b;
  }
  if (anchors.next != kNil) {
    buckets_[anchors.next].prev = b;
  } else {
    max_bucket_ = b;
  }
}

void StreamSummary::PlaceWithCount(std::uint32_t n, std::uint64_t new_count) {
  {
    // Fast path: the node is its bucket's only member and no successor
    // bucket already holds new_count, so the bucket absorbs the new
    // count in place — same structure the detach/alloc/relink dance
    // below would produce, without touching the chain. (Order holds:
    // the successor's count exceeded the old count, so it is >=
    // new_count; equality falls through to the merge path.)
    const Bucket& bucket = buckets_[nodes_[n].bucket];
    if (bucket.head == n && bucket.tail == n &&
        (bucket.next == kNil || buckets_[bucket.next].count > new_count)) {
      buckets_[nodes_[n].bucket].count = new_count;
      nodes_[n].count = new_count;
      return;
    }
  }
  const Anchors anchors = DetachFromBucket(n);
  nodes_[n].count = new_count;
  if (anchors.next != kNil && buckets_[anchors.next].count == new_count) {
    AppendToBucket(anchors.next, n);
    return;
  }
  const std::uint32_t b = AllocBucket(new_count);
  LinkBucketBetween(b, anchors);
  AppendToBucket(b, n);
}

bool StreamSummary::Offer(const PageId* pages, std::size_t length,
                          std::uint64_t first_seen_seq) {
  key_buf_.resize(length * 4);
  for (std::size_t i = 0; i < length; ++i) {
    const PageId page = pages[i];
    key_buf_[i * 4 + 0] = static_cast<char>(page & 0xff);
    key_buf_[i * 4 + 1] = static_cast<char>((page >> 8) & 0xff);
    key_buf_[i * 4 + 2] = static_cast<char>((page >> 16) & 0xff);
    key_buf_[i * 4 + 3] = static_cast<char>((page >> 24) & 0xff);
  }
  ++paths_processed_;
  bool inserted = false;
  const std::uint64_t hash = HashKey(key_buf_);
  const std::size_t slot = FindSlot(key_buf_, hash);
  if (slots_[slot] != kNil) {
    const std::uint32_t n = slots_[slot];
    PlaceWithCount(n, nodes_[n].count + 1);
  } else if (tracked_ < capacity_) {
    const std::uint32_t n = AllocNode();
    Node& node = nodes_[n];
    node.key = key_buf_;
    node.hash = hash;
    node.count = 1;
    node.error = 0;
    node.first_seen = first_seen_seq;
    if (min_bucket_ != kNil && buckets_[min_bucket_].count == 1) {
      AppendToBucket(min_bucket_, n);
    } else {
      const std::uint32_t b = AllocBucket(1);
      LinkBucketBetween(b, Anchors{kNil, min_bucket_});
      AppendToBucket(b, n);
    }
    slots_[slot] = n;
    ++tracked_;
    inserted = true;
  } else {
    // SpaceSaving eviction: the victim is the head of the minimum
    // bucket (its longest resident — a deterministic choice that
    // Serialize/Restore preserves). The newcomer inherits the victim's
    // count as its error bound.
    const std::uint32_t v = buckets_[min_bucket_].head;
    Node& node = nodes_[v];
    const std::uint64_t inherited = node.count;
    EraseKey(node.key, node.hash);
    node.key = key_buf_;
    node.hash = hash;
    node.error = inherited;
    node.first_seen = first_seen_seq;
    PlaceWithCount(v, inherited + 1);
    // Backward-shift may have moved entries, so re-probe for the slot.
    slots_[FindSlot(node.key, hash)] = v;
    ++tracked_;
    inserted = true;
  }
  if (window_paths_ != 0 && ++offers_since_decay_ >= window_paths_) {
    Decay();
    offers_since_decay_ = 0;
  }
  return inserted;
}

void StreamSummary::AppendPacked(std::vector<PackedEstimate>* out) const {
  for (std::uint32_t b = min_bucket_; b != kNil; b = buckets_[b].next) {
    for (std::uint32_t n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
      const Node& node = nodes_[n];
      out->push_back({node.key, node.count, node.error, node.first_seen});
    }
  }
}

std::vector<PatternEstimate> RankPacked(std::vector<PackedEstimate> entries,
                                        std::size_t k) {
  const auto before = [](const PackedEstimate& a, const PackedEstimate& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
    return StreamSummary::UnpackPath(a.key) < StreamSummary::UnpackPath(b.key);
  };
  const std::size_t n = std::min(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + n, entries.end(),
                    before);
  std::vector<PatternEstimate> top;
  top.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PackedEstimate& entry = entries[i];
    top.push_back(PatternEstimate{StreamSummary::UnpackPath(entry.key),
                                  entry.count, entry.error, entry.first_seen});
  }
  return top;
}

std::vector<PatternEstimate> StreamSummary::TopK(std::size_t k) const {
  std::vector<PackedEstimate> all;
  all.reserve(tracked_);
  AppendPacked(&all);
  return RankPacked(std::move(all), k);
}

void StreamSummary::AppendInChainOrder(std::uint32_t n) {
  if (max_bucket_ != kNil && buckets_[max_bucket_].count == nodes_[n].count) {
    AppendToBucket(max_bucket_, n);
    return;
  }
  const std::uint32_t b = AllocBucket(nodes_[n].count);
  LinkBucketBetween(b, Anchors{max_bucket_, kNil});
  AppendToBucket(b, n);
}

void StreamSummary::Decay() {
  // Collect survivors in chain order; halved counts stay non-decreasing
  // in that order, so one appending pass rebuilds the chain.
  std::vector<std::uint32_t> order;
  order.reserve(tracked_);
  for (std::uint32_t b = min_bucket_; b != kNil; b = buckets_[b].next) {
    for (std::uint32_t n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
      order.push_back(n);
    }
  }
  buckets_.clear();
  free_buckets_.clear();
  min_bucket_ = kNil;
  max_bucket_ = kNil;
  for (const std::uint32_t n : order) {
    Node& node = nodes_[n];
    node.count >>= 1;
    node.error >>= 1;
    node.bucket = kNil;
    node.prev = kNil;
    node.next = kNil;
    if (node.count == 0) {
      EraseKey(node.key, node.hash);
      node.key.clear();
      free_nodes_.push_back(n);
    } else {
      AppendInChainOrder(n);
    }
  }
  paths_processed_ >>= 1;
  ++decays_;
}

void StreamSummary::Serialize(ckpt::Encoder* encoder) const {
  encoder->PutUvarint(capacity_);
  encoder->PutUvarint(window_paths_);
  encoder->PutUvarint(paths_processed_);
  encoder->PutUvarint(offers_since_decay_);
  encoder->PutUvarint(decays_);
  encoder->PutUvarint(tracked_);
  for (std::uint32_t b = min_bucket_; b != kNil; b = buckets_[b].next) {
    for (std::uint32_t n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
      const Node& node = nodes_[n];
      encoder->PutUvarint(node.count);
      encoder->PutUvarint(node.error);
      encoder->PutUvarint(node.first_seen);
      encoder->PutString(node.key);
    }
  }
}

Status StreamSummary::Restore(ckpt::Decoder* decoder) {
  WUM_ASSIGN_OR_RETURN(const std::uint64_t capacity, decoder->GetUvarint());
  WUM_ASSIGN_OR_RETURN(const std::uint64_t window, decoder->GetUvarint());
  if (capacity != capacity_ || window != window_paths_) {
    return Status::InvalidArgument(
        "mining state was written under a different configuration "
        "(capacity " +
        std::to_string(capacity) + " window " + std::to_string(window) +
        ", expected capacity " + std::to_string(capacity_) + " window " +
        std::to_string(window_paths_) + ")");
  }
  WUM_ASSIGN_OR_RETURN(paths_processed_, decoder->GetUvarint());
  WUM_ASSIGN_OR_RETURN(offers_since_decay_, decoder->GetUvarint());
  WUM_ASSIGN_OR_RETURN(decays_, decoder->GetUvarint());
  WUM_ASSIGN_OR_RETURN(const std::uint64_t tracked, decoder->GetUvarint());
  if (tracked > capacity_) {
    return Status::ParseError("mining state tracks more paths than capacity");
  }
  nodes_.clear();
  free_nodes_.clear();
  buckets_.clear();
  free_buckets_.clear();
  min_bucket_ = kNil;
  max_bucket_ = kNil;
  slots_.assign(slots_.size(), kNil);
  tracked_ = 0;
  std::uint64_t previous_count = 0;
  for (std::uint64_t i = 0; i < tracked; ++i) {
    WUM_ASSIGN_OR_RETURN(const std::uint64_t count, decoder->GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t error, decoder->GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t first_seen, decoder->GetUvarint());
    WUM_ASSIGN_OR_RETURN(std::string key, decoder->GetString());
    if (count == 0 || count < previous_count) {
      return Status::ParseError("mining state counts out of chain order");
    }
    if (key.size() % 4 != 0) {
      return Status::ParseError("mining state path key not page-aligned");
    }
    previous_count = count;
    const std::uint64_t hash = HashKey(key);
    const std::size_t slot = FindSlot(key, hash);
    if (slots_[slot] != kNil) {
      return Status::ParseError("mining state repeats a path");
    }
    const std::uint32_t n = AllocNode();
    Node& node = nodes_[n];
    node.key = std::move(key);
    node.hash = hash;
    node.count = count;
    node.error = error;
    node.first_seen = first_seen;
    slots_[slot] = n;
    ++tracked_;
    AppendInChainOrder(n);
  }
  return Status::OK();
}

}  // namespace wum::mine
