// A shard's per-user table: every user the shard has seen, with their
// open sessionization state held by value.
//
// Entries live in one dense vector in first-seen order; each user's key
// bytes are stored once, in a shard-owned byte arena. A flat uint32
// index with linear probing (load factor <= 1/2, grown by doubling)
// maps a key to its entry, on the model of mine::StreamSummary's index.
// The hash is the partitioner's (UserHashFor / UserKeyHash), computed
// once per record on the producer and carried in ShardRecord, so the
// shard never rehashes a live key. Its low bits already chose the shard
// (hash % num_shards: on shard 0 of 2 every hash is even), and FNV-1a's
// high half clusters on short sequential keys such as IPs (at 1,000
// users and load 1/2 a lookup took 29 probes on average), so the index
// takes the top bits of hash * 2^64/phi, which depend on every bit of
// the hash (Fibonacci hashing: ~1.2-1.6 probes at any shard count).
//
// Nothing ever leaves the table: each user keeps one open candidate
// until the end of the stream. The only O(users) step is the doubling
// rehash of the index.

#ifndef WUM_STREAM_USER_TABLE_H_
#define WUM_STREAM_USER_TABLE_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "wum/common/result.h"
#include "wum/common/time.h"

namespace wum {

template <typename State>
class UserTable {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t key_offset = 0;
    std::uint32_t key_length = 0;
    /// Timestamp of the user's latest request (the per-user ordering
    /// check).
    TimeSeconds last_timestamp = 0;
    bool has_seen_request = false;
    State state{};
  };

  UserTable() { Clear(); }

  /// The slot holding `key`, whose UserKeyHash is `hash`, or the empty
  /// slot where it would go. Terminates because the load stays <= 1/2.
  std::size_t FindSlot(std::string_view key, std::uint64_t hash) const {
    std::size_t slot = Home(hash);
    while (true) {
      const std::uint32_t index = slots_[slot];
      if (index == kNil) return slot;
      if (entries_[index].hash == hash && KeyOf(index) == key) return slot;
      slot = (slot + 1) & slot_mask_;
    }
  }

  /// The entry index stored at `slot`, or kNil when it is empty.
  std::uint32_t IndexAt(std::size_t slot) const { return slots_[slot]; }

  /// Appends an entry for `key` at the empty `slot` FindSlot returned
  /// for it, and returns the entry's index. Every slot is stale
  /// afterwards (the index may have grown). OutOfRange once the key
  /// arena or the index cannot address another user.
  Result<std::uint32_t> Insert(std::size_t slot, std::string_view key,
                               std::uint64_t hash) {
    if (entries_.size() >= kNil ||
        key.size() > kMaxArenaBytes - keys_.size()) {
      return Status::OutOfRange("user table full (" +
                                std::to_string(entries_.size()) + " users)");
    }
    const auto index = static_cast<std::uint32_t>(entries_.size());
    Entry& entry = entries_.emplace_back();
    entry.hash = hash;
    entry.key_offset = static_cast<std::uint32_t>(keys_.size());
    entry.key_length = static_cast<std::uint32_t>(key.size());
    keys_.append(key);
    slots_[slot] = index;
    if (entries_.size() * 2 > slots_.size()) Grow();
    return index;
  }

  Entry& entry(std::uint32_t index) { return entries_[index]; }
  const Entry& entry(std::uint32_t index) const { return entries_[index]; }

  /// The key of entry `index`; valid until the next Insert.
  std::string_view KeyOf(std::uint32_t index) const {
    const Entry& entry = entries_[index];
    return std::string_view(keys_.data() + entry.key_offset,
                            entry.key_length);
  }

  /// Users held, in first-seen order 0..size()-1.
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Heap bytes the table holds: entries, key arena and index (not
  /// what a State owns on the heap).
  std::size_t bytes() const {
    return entries_.capacity() * sizeof(Entry) + keys_.capacity() +
           slots_.capacity() * sizeof(std::uint32_t);
  }

  /// Mean number of slots a lookup of a present key inspects.
  double MeanProbeLength() const {
    if (entries_.empty()) return 0.0;
    std::size_t probes = 0;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot] == kNil) continue;
      probes += ((slot - Home(entries_[slots_[slot]].hash)) & slot_mask_) + 1;
    }
    return static_cast<double>(probes) / static_cast<double>(entries_.size());
  }

  /// Drops every entry (checkpoint restore starts from scratch).
  void Clear() {
    entries_.clear();
    keys_.clear();
    slots_.assign(kMinSlots, kNil);
    slot_mask_ = kMinSlots - 1;
    slot_shift_ = 64 - std::countr_zero(kMinSlots);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kMaxArenaBytes =
      std::numeric_limits<std::uint32_t>::max();

  std::size_t Home(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ull) >>
                                    slot_shift_);
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, kNil);
    slot_mask_ = slots_.size() - 1;
    --slot_shift_;
    for (std::uint32_t index = 0; index < entries_.size(); ++index) {
      std::size_t slot = Home(entries_[index].hash);
      while (slots_[slot] != kNil) slot = (slot + 1) & slot_mask_;
      slots_[slot] = index;
    }
  }

  std::vector<Entry> entries_;
  std::string keys_;  // every user's key bytes, once
  std::vector<std::uint32_t> slots_;  // entry index or kNil; power of two
  std::size_t slot_mask_ = 0;
  int slot_shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace wum

#endif  // WUM_STREAM_USER_TABLE_H_
