// User identification: groups cleaned log records into per-user request
// streams keyed by client IP (the only identity a reactive strategy has,
// per §1 — users behind one proxy collapse into one stream, which the
// proxy ablation bench exploits deliberately).

#ifndef WUM_CLF_USER_PARTITIONER_H_
#define WUM_CLF_USER_PARTITIONER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wum/clf/log_record.h"
#include "wum/common/result.h"
#include "wum/session/session.h"

namespace wum {

/// How log records are attributed to users. CLF only offers the IP; the
/// Combined format's User-Agent field separates distinct browsers behind
/// one proxy (the classic Cooley et al. refinement).
enum class UserIdentity {
  kClientIp = 0,
  kClientIpAndUserAgent = 1,
};

/// Composite identity key ("ip" or "ip\x1fuser-agent").
std::string UserKeyFor(std::string_view client_ip, std::string_view user_agent,
                       UserIdentity identity);

/// Appends the key `UserKeyFor` would build to `*out`, without a
/// temporary string (the streaming engine's per-batch key arena).
void AppendUserKey(std::string_view client_ip, std::string_view user_agent,
                   UserIdentity identity, std::string* out);

/// Inverse of `UserKeyFor`: the client IP and user agent a key was built
/// from (the agent is empty under kClientIp).
std::pair<std::string_view, std::string_view> SplitUserKey(
    std::string_view key, UserIdentity identity);

namespace partitioner_internal {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t Fnv1aMix(std::uint64_t hash, std::string_view bytes) {
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace partitioner_internal

/// Stable 64-bit FNV-1a hash of a user key: UserKeyHash(UserKeyFor(ip,
/// agent, identity)) == UserHashFor(ip, agent, identity). A shard's user
/// table rehashes a checkpointed key with it.
inline std::uint64_t UserKeyHash(std::string_view key) {
  return partitioner_internal::Fnv1aMix(partitioner_internal::kFnvOffsetBasis,
                                        key);
}

/// UserKeyHash of the identity `UserKeyFor` would build, computed
/// without materializing the key string (hot path of the sharded
/// StreamEngine: computed once per record in the partition pass, it picks
/// the shard as hash % num_shards and rides the record to that shard's
/// user table). Deterministic across runs and platforms, so shard
/// assignment is reproducible.
inline std::uint64_t UserHashFor(std::string_view client_ip,
                                 std::string_view user_agent,
                                 UserIdentity identity) {
  using partitioner_internal::Fnv1aMix;
  std::uint64_t hash =
      Fnv1aMix(partitioner_internal::kFnvOffsetBasis, client_ip);
  if (identity == UserIdentity::kClientIpAndUserAgent) {
    hash = Fnv1aMix(hash, std::string_view("\x1f", 1));
    hash = Fnv1aMix(hash, user_agent);
  }
  return hash;
}

/// One user's request stream in timestamp order.
struct UserStream {
  /// Identity key (UserKeyFor; SplitUserKey recovers the IP and agent).
  std::string user_key;
  std::vector<PageRequest> requests;
};

/// Streams are sorted by timestamp (stable, preserving log order for
/// equal stamps); the stream list is sorted by user key for determinism.
struct PartitionResult {
  std::vector<UserStream> streams;
  std::uint64_t skipped_non_page_urls = 0;
};

/// Groups cleaned records into per-user request streams of page ids.
/// Records whose URL is not a canonical page URL are skipped and counted.
/// Add copies only the user key (once per user) and a PageRequest, so no
/// ref outlives the call and the log never has to stay in memory.
class UserPartitioner {
 public:
  /// `num_pages` bounds valid page ids.
  explicit UserPartitioner(std::size_t num_pages,
                           UserIdentity identity = UserIdentity::kClientIp)
      : num_pages_(num_pages), identity_(identity) {}

  /// Files `record` under its user. A page outside the topology is
  /// InvalidArgument (a topology/log mismatch).
  Status Add(const LogRecordRef& record);

  PartitionResult Finish() &&;

 private:
  std::size_t num_pages_;
  UserIdentity identity_;
  std::map<std::string, std::vector<PageRequest>, std::less<>> by_user_;
  std::string key_;  // Add's reusable key buffer
  std::uint64_t skipped_non_page_urls_ = 0;
};

}  // namespace wum

#endif  // WUM_CLF_USER_PARTITIONER_H_
