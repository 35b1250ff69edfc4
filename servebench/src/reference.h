// Batch reference for a generated workload and the output check that
// compares a TCP run against it.
//
// The reference runs batch SmartSra::Reconstruct over each user's kept
// page views. Users are independent (Bayir & Toroslu), so however shards
// and connections interleave, each user's emitted sessions must form the
// same multiset as the reference's. Multisets are compared through an
// order-free fingerprint (count plus a sum of strong per-session hashes);
// the first differing user is then re-derived in full for the report.

#ifndef SERVEBENCH_REFERENCE_H_
#define SERVEBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "wum/common/result.h"
#include "wum/mine/options.h"
#include "wum/mine/stream_summary.h"
#include "wum/session/session.h"
#include "workload.h"

namespace servebench {

/// One phase-1 candidate of one user: the sessions phase 2 makes of it
/// are emitted once the line that starts the user's next candidate is
/// processed (the paper's rule: page stay > rho or duration > delta).
struct Candidate {
  wum::TimeSeconds first_ts = 0;
  /// Global line index of the closing page view; -1 when only the end
  /// of the stream closes the candidate.
  std::int64_t closing_line = -1;
  /// The closing page view's line index on its connection.
  std::uint32_t closing_conn_line = 0;
};

struct Reference {
  std::vector<std::uint64_t> user_hash;      // sum of session hashes
  std::vector<std::uint32_t> user_sessions;  // session count
  std::vector<std::uint64_t> cand_begin;     // per-user CSR into candidates
  std::vector<Candidate> candidates;
  std::uint64_t total_sessions = 0;
  /// Requests over all sessions (phase 2 may put a page view in more
  /// than one session of its candidate).
  std::uint64_t total_requests = 0;
  /// Exact counts of every topology-valid contiguous path of the mined
  /// lengths (MiningOptions) over all reference sessions (filled when
  /// requested), keyed by PathKey.
  std::unordered_map<std::uint64_t, std::uint64_t> path_counts;
  std::uint64_t total_paths = 0;
  /// Wall time of the batch Reconstruct pass alone, single thread.
  double batch_reconstruct_s = 0.0;
};

/// The miner configuration the engine mines with and the reference
/// recounts against: default MinerOptions, as websra_serve uses.
wum::mine::MinerOptions MiningOptions();

std::uint64_t SessionHash(const wum::Session& session);
/// A strong hash of a page path, any length.
std::uint64_t PathKey(const std::vector<wum::PageId>& path);

wum::Result<Reference> BuildReference(const Input& input, bool count_paths);

/// What the engine's SessionSink received, in arrival order.
struct Received {
  std::string user;
  wum::Session session;
  std::int64_t recv_ns = 0;
};

/// Counters of one TCP run the check reconciles.
struct RunCounts {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_read = 0;         // LogServer::stats()
  std::uint64_t lines_sent = 0;
  std::uint64_t records_offered = 0;    // StreamEngine::records_seen()
  std::uint64_t records_in = 0;         // TotalStats()
  std::uint64_t records_dropped = 0;
  std::uint64_t records_shed = 0;
  std::uint64_t dead_letters = 0;       // engine-side quarantines
  std::uint64_t dead_letter_records = 0;  // DeadLetterQueue coverage
  std::uint64_t sessions_emitted = 0;
};

struct CheckResult {
  bool ok = true;
  std::vector<std::string> problems;
  std::uint64_t mismatched_users = 0;
  /// Records counted failed: shed, dead-lettered or rejected, plus the
  /// kept page views of every user whose sessions are missing or wrong.
  std::uint64_t failed_records = 0;
  std::string first_difference;  // empty when every user matches

  void Fail(std::string problem) {
    ok = false;
    problems.push_back(std::move(problem));
  }
};

/// The send plan rule: every line of a user went out on one connection.
/// Reads the client of every line actually rendered for sending.
void CheckSendPlan(const Input& input, CheckResult* result);

/// Compares a run's output and counters against the reference. Also
/// checks the send plan.
CheckResult CheckRun(const Input& input, const Reference& reference,
                     const std::vector<Received>& received,
                     const RunCounts& counts);

/// SpaceSaving bounds of the final top-k against the exact recount:
/// count - error <= exact <= count for every reported path, and the
/// miner saw every session. Appends to `result` on failure.
void CheckPatterns(const Reference& reference,
                   const std::vector<wum::mine::PatternEstimate>& top,
                   std::uint64_t sessions_seen, CheckResult* result);

}  // namespace servebench

#endif  // SERVEBENCH_REFERENCE_H_
