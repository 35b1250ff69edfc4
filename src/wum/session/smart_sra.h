// heur4 — Smart-SRA, the paper's contribution (§3).
//
// Phase 1 cuts the per-user request stream into candidate sessions using
// both time-oriented rules (total duration <= delta, page stay <= rho).
// Phase 2 turns each candidate into the set of *maximal* sessions
// satisfying both the timestamp-ordering rule and the topology rule. It
// first builds the candidate's link DAG once: an edge j -> i for every
// later occurrence i with Link[page_j, page_i] and 0 <= t_i - t_j <= rho
// (the scan over i stops at the first gap past rho). When every
// occurrence has at most one DAG predecessor and one successor the DAG's
// chains are the sessions. Otherwise it repeatedly
//   (I)   collects the occurrences with no remaining in-candidate
//         referrer (their DAG in-degree, decremented as referrers go),
//   (II)  removes them from the candidate, and
//   (III) appends them to every constructed session whose last page
//         links to them within the page-stay bound (unextended sessions
//         are carried over unchanged).
//
// Differences from the paper's pseudocode (see DESIGN.md §2): referrers
// are earlier pages (the printed `j>i` contradicts both the formal
// definition and the Table 4 trace), and the step-III time check compares
// against the session's last element. Additionally the extension requires
// a non-negative time difference, because occurrence-removal order is not
// timestamp order and the paper's own timestamp-ordering rule would
// otherwise be violated. Removal order can still put a later-indexed
// occurrence at a session's end when a start shares its timestamp; step
// III probes that pair directly, since the DAG holds forward edges only.

#ifndef WUM_SESSION_SMART_SRA_H_
#define WUM_SESSION_SMART_SRA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wum/common/time.h"
#include "wum/session/sessionizer.h"
#include "wum/topology/web_graph.h"

namespace wum {

/// Smart Session Reconstruction Algorithm.
class SmartSra : public Sessionizer {
 public:
  struct Options {
    /// delta / rho (paper defaults 30 min / 10 min).
    TimeThresholds thresholds;
    /// Phase 2 enumerates every maximal path, which is exponential on
    /// adversarial topologies (chained link diamonds). Reconstruct
    /// returns OutOfRange once one candidate's session set exceeds this.
    std::size_t max_sessions_per_candidate = 65536;
    /// Drop exact-duplicate sessions from each candidate's output.
    bool deduplicate = true;
  };

  /// `graph` must outlive the sessionizer. The one-argument form uses
  /// default Options (paper thresholds).
  explicit SmartSra(const WebGraph* graph);
  SmartSra(const WebGraph* graph, Options options);

  std::string name() const override { return "heur4-smart-sra"; }

  Result<std::vector<Session>> Reconstruct(
      std::span<const PageRequest> requests) const override;

  /// Phase 1 only: candidate sessions obeying both time rules.
  std::vector<Session> Phase1(std::span<const PageRequest> requests) const;

  /// Phase 2's reusable buffers and its output. Phase2 makes no heap
  /// allocation once a workspace has held a candidate of the same shape.
  /// Not thread-safe: one workspace serves one thread at a time.
  class Workspace {
   public:
    /// The maximal sessions of the last successful Phase2 call, as spans
    /// valid until the next call.
    std::size_t num_paths() const { return paths_.size(); }
    std::span<const PageRequest> path(std::size_t k) const {
      return std::span<const PageRequest>(requests_).subspan(
          paths_[k].offset, paths_[k].length);
    }

    /// Entries the buffers can hold without allocating, summed over them.
    /// Phase2 keeps at most kWorkspaceRetainedEntries of them from one
    /// call to the next, apart from the output of a successful call.
    std::size_t retained_entries() const;

   private:
    friend class SmartSra;

    struct Span {
      std::size_t offset = 0;
      std::size_t length = 0;
    };

    /// Frees every buffer once they hold more than
    /// kWorkspaceRetainedEntries entries; the output too unless
    /// `keep_output`.
    void Trim(bool keep_output);

    // The candidate's link DAG in CSR form: the successors of occurrence
    // j are successors_[successor_begin_[j] .. successor_begin_[j + 1]),
    // ascending; in_degree_[i] counts i's predecessors, and steps I-II
    // count it down as they are removed.
    std::vector<std::size_t> successor_begin_;
    std::vector<std::uint32_t> successors_;
    std::vector<std::uint32_t> in_degree_;
    // One round's starts, and the next round's as their referrers go.
    std::vector<std::uint32_t> starts_;
    std::vector<std::uint32_t> next_starts_;
    // The session set as occurrence-index spans into a flat arena; a
    // round builds the next set in the second pair and swaps.
    std::vector<std::uint32_t> arena_;
    std::vector<Span> sessions_;
    std::vector<std::uint32_t> next_arena_;
    std::vector<Span> next_sessions_;
    std::vector<std::uint8_t> extended_;
    // Output: the sessions' requests, flat, and one span per session.
    std::vector<PageRequest> requests_;
    std::vector<Span> paths_;
  };

  /// Capacity bound of a Workspace between Phase2 calls (see
  /// Workspace::retained_entries): a pathological candidate's buffers are
  /// freed rather than pinned.
  static constexpr std::size_t kWorkspaceRetainedEntries = std::size_t{1}
                                                           << 16;

  /// Phase 2 only: the maximal topology-consistent sessions of one
  /// timestamp-sorted candidate, left in `workspace` (sorted and
  /// deduplicated when Options::deduplicate). OutOfRange past
  /// max_sessions_per_candidate.
  Status Phase2(std::span<const PageRequest> candidate,
                Workspace* workspace) const;

  /// Phase2 into a local workspace, as Sessions.
  Result<std::vector<Session>> Phase2(const Session& candidate) const;

  const Options& options() const { return options_; }

 private:
  /// Phase2's body; Phase2 trims the workspace around it.
  Status BuildPaths(std::span<const PageRequest> candidate,
                    Workspace* workspace) const;
  /// Sorts the workspace's paths lexicographically and drops duplicates.
  static void SortAndDeduplicate(Workspace* workspace);

  const WebGraph* graph_;
  Options options_;
};

}  // namespace wum

#endif  // WUM_SESSION_SMART_SRA_H_
