#include "wum/stream/heuristic_registry.h"

#include <type_traits>
#include <utility>

#include "wum/session/navigation_heuristic.h"
#include "wum/session/smart_sra.h"
#include "wum/session/time_heuristics.h"
#include "wum/stream/incremental_time_sessionizers.h"
#include "wum/topology/web_graph.h"

namespace wum {

namespace {

/// One registry entry whose streaming forms both come from `make_rule`:
/// the stand-alone per-user sessionizer and the per-shard sink.
template <typename MakeRule>
HeuristicRegistry::Entry RuleEntry(std::string name, std::string description,
                                   bool needs_graph,
                                   HeuristicRegistry::BatchFactory make_batch,
                                   MakeRule make_rule) {
  using Rule = std::invoke_result_t<MakeRule, const HeuristicContext&>;
  return HeuristicRegistry::Entry{
      std::move(name),
      std::move(description),
      needs_graph,
      std::move(make_batch),
      [make_rule](const HeuristicContext& context)
          -> Result<UserSessionizerFactory> {
        return UserSessionizerFactory([rule = make_rule(context)]() {
          return std::make_unique<RuleSessionizer<Rule>>(rule);
        });
      },
      [make_rule](const HeuristicContext& context)
          -> Result<SessionizeSinkFactory> {
        return SessionizeSinkFactoryFor(make_rule(context));
      },
  };
}

}  // namespace

HeuristicRegistry::HeuristicRegistry(std::vector<Entry> entries)
    : entries_(std::move(entries)) {}

const HeuristicRegistry& HeuristicRegistry::Default() {
  static const HeuristicRegistry* const kRegistry =
      new HeuristicRegistry(std::vector<Entry>{
          RuleEntry(
              "duration", "heur1: total session duration bounded by delta",
              /*needs_graph=*/false,
              [](const HeuristicContext& context)
                  -> Result<std::unique_ptr<Sessionizer>> {
                return std::unique_ptr<Sessionizer>(
                    std::make_unique<SessionDurationSessionizer>(
                        context.thresholds.max_session_duration));
              },
              [](const HeuristicContext& context) {
                return DurationRule(context.thresholds.max_session_duration);
              }),
          RuleEntry(
              "pagestay", "heur2: consecutive-request gap bounded by rho",
              /*needs_graph=*/false,
              [](const HeuristicContext& context)
                  -> Result<std::unique_ptr<Sessionizer>> {
                return std::unique_ptr<Sessionizer>(
                    std::make_unique<PageStaySessionizer>(
                        context.thresholds.max_page_stay));
              },
              [](const HeuristicContext& context) {
                return PageStayRule(context.thresholds.max_page_stay);
              }),
          RuleEntry(
              "navigation",
              "heur3: topology-linked navigation with path completion",
              /*needs_graph=*/true,
              [](const HeuristicContext& context)
                  -> Result<std::unique_ptr<Sessionizer>> {
                return std::unique_ptr<Sessionizer>(
                    std::make_unique<NavigationSessionizer>(context.graph));
              },
              [](const HeuristicContext& context) {
                return NavigationRule(context.graph);
              }),
          RuleEntry(
              "smart-sra",
              "heur4: Smart-SRA maximal topology+time consistent sessions",
              /*needs_graph=*/true,
              [](const HeuristicContext& context)
                  -> Result<std::unique_ptr<Sessionizer>> {
                SmartSra::Options options;
                options.thresholds = context.thresholds;
                return std::unique_ptr<Sessionizer>(
                    std::make_unique<SmartSra>(context.graph, options));
              },
              [](const HeuristicContext& context) {
                SmartSra::Options options;
                options.thresholds = context.thresholds;
                return SmartSraRule(context.graph, options);
              }),
      });
  return *kRegistry;
}

std::vector<std::string> HeuristicRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  return names;
}

std::string HeuristicRegistry::NamesForUsage() const {
  std::string usage;
  for (const Entry& entry : entries_) {
    if (!usage.empty()) usage += '|';
    usage += entry.name;
  }
  return usage;
}

const HeuristicRegistry::Entry* HeuristicRegistry::Find(
    const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

bool HeuristicRegistry::Contains(const std::string& name) const {
  return Find(name) != nullptr;
}

Result<const HeuristicRegistry::Entry*> HeuristicRegistry::FindChecked(
    const std::string& name, const HeuristicContext& context) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("unknown heuristic '" + name + "' (expected " +
                            NamesForUsage() + ")");
  }
  if (entry->needs_graph && context.graph == nullptr) {
    return Status::InvalidArgument("heuristic '" + name +
                                   "' requires a non-null WebGraph");
  }
  return entry;
}

Result<std::unique_ptr<Sessionizer>> HeuristicRegistry::CreateBatch(
    const std::string& name, const HeuristicContext& context) const {
  WUM_ASSIGN_OR_RETURN(const Entry* entry, FindChecked(name, context));
  return entry->make_batch(context);
}

Result<UserSessionizerFactory> HeuristicRegistry::CreateIncremental(
    const std::string& name, const HeuristicContext& context) const {
  WUM_ASSIGN_OR_RETURN(const Entry* entry, FindChecked(name, context));
  return entry->make_incremental(context);
}

Result<SessionizeSinkFactory> HeuristicRegistry::CreateSinkFactory(
    const std::string& name, const HeuristicContext& context) const {
  WUM_ASSIGN_OR_RETURN(const Entry* entry, FindChecked(name, context));
  return entry->make_sink(context);
}

}  // namespace wum
