// HeuristicRegistry: the single heuristic-name -> factory mapping in the
// codebase. Everything that turns a CLI/config string ("duration",
// "pagestay", "navigation", "smart-sra") into a sessionizer — the
// websra_* tools, EngineOptions::use_heuristic, MakePaperHeuristics —
// resolves through this table, so adding a heuristic is a one-entry
// change and --help strings never drift from what actually dispatches.
//
// An entry holds one factory, for the heuristic's rule (see
// session/sessionizer.h); both construction forms come from it: the
// batch Sessionizer folds the rule over a user's stream, and the
// per-shard SessionizeSink the StreamEngine runs applies it to every
// user of a shard. It lives in stream/ (not session/) because of the
// second.

#ifndef WUM_STREAM_HEURISTIC_REGISTRY_H_
#define WUM_STREAM_HEURISTIC_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wum/common/result.h"
#include "wum/common/time.h"
#include "wum/session/sessionizer.h"
#include "wum/stream/incremental_sessionizer.h"

namespace wum {

class WebGraph;

/// Everything a heuristic factory may need. Graph-based heuristics fail
/// with InvalidArgument when `graph` is null; time-based ones ignore it.
struct HeuristicContext {
  /// Must outlive the created sessionizers.
  const WebGraph* graph = nullptr;
  /// delta / rho (paper defaults 30 min / 10 min).
  TimeThresholds thresholds;
};

/// Immutable name -> factory table of the session reconstruction
/// heuristics. `Default()` holds the paper's four (the referrer oracle
/// consumes a different input type — ReferredRequest streams — and is
/// deliberately not a Sessionizer, so it stays outside the registry).
class HeuristicRegistry {
 public:
  struct Entry {
    /// Canonical CLI name, e.g. "smart-sra".
    std::string name;
    /// One-line description for --help output.
    std::string description;
    bool needs_graph = false;
    /// Both built from the entry's one rule factory.
    std::function<std::unique_ptr<Sessionizer>(const HeuristicContext&)>
        make_batch;
    std::function<SessionizeSinkFactory(const HeuristicContext&)> make_sink;
  };

  /// The built-in table with the paper's four heuristics.
  static const HeuristicRegistry& Default();

  /// Registration order == the paper's order (heur1..heur4).
  explicit HeuristicRegistry(std::vector<Entry> entries);

  /// Canonical names in registration order (for --help and loops).
  std::vector<std::string> Names() const;

  /// "duration|pagestay|navigation|smart-sra" for usage strings.
  std::string NamesForUsage() const;

  const Entry* Find(const std::string& name) const;
  bool Contains(const std::string& name) const;

  /// Batch sessionizer for `name`. NotFound for unknown names,
  /// InvalidArgument when a graph heuristic is missing its graph.
  Result<std::unique_ptr<Sessionizer>> CreateBatch(
      const std::string& name, const HeuristicContext& context) const;

  /// Per-shard sink factory for `name` (what StreamEngine shards run):
  /// each sink applies one copy of the rule to its whole user table.
  /// Same error contract as CreateBatch.
  Result<SessionizeSinkFactory> CreateSinkFactory(
      const std::string& name, const HeuristicContext& context) const;

 private:
  Result<const Entry*> FindChecked(const std::string& name,
                                   const HeuristicContext& context) const;

  std::vector<Entry> entries_;
};

}  // namespace wum

#endif  // WUM_STREAM_HEURISTIC_REGISTRY_H_
