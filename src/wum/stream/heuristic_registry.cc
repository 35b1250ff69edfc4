#include "wum/stream/heuristic_registry.h"

#include <type_traits>
#include <utility>

#include "wum/session/navigation_heuristic.h"
#include "wum/session/smart_sra.h"
#include "wum/session/time_heuristics.h"

namespace wum {
namespace {

/// The entry whose batch and sink forms both come from `make_rule`, a
/// callable from const HeuristicContext& to the heuristic's rule.
template <typename MakeRule>
HeuristicRegistry::Entry RuleEntry(std::string name, std::string description,
                                   bool needs_graph, MakeRule make_rule) {
  using Rule = std::invoke_result_t<MakeRule, const HeuristicContext&>;
  return HeuristicRegistry::Entry{
      std::move(name), std::move(description), needs_graph,
      [make_rule](const HeuristicContext& context) {
        return std::unique_ptr<Sessionizer>(
            std::make_unique<FoldSessionizer<Rule>>(make_rule(context)));
      },
      [make_rule](const HeuristicContext& context) {
        return SessionizeSinkFactoryFor(make_rule(context));
      }};
}

}  // namespace

HeuristicRegistry::HeuristicRegistry(std::vector<Entry> entries)
    : entries_(std::move(entries)) {}

const HeuristicRegistry& HeuristicRegistry::Default() {
  static const HeuristicRegistry* const kRegistry =
      new HeuristicRegistry(std::vector<Entry>{
          RuleEntry("duration",
                    "heur1: total session duration bounded by delta",
                    /*needs_graph=*/false,
                    [](const HeuristicContext& context) {
                      return DurationRule(
                          context.thresholds.max_session_duration);
                    }),
          RuleEntry("pagestay",
                    "heur2: consecutive-request gap bounded by rho",
                    /*needs_graph=*/false,
                    [](const HeuristicContext& context) {
                      return PageStayRule(context.thresholds.max_page_stay);
                    }),
          RuleEntry("navigation",
                    "heur3: topology-linked navigation with path completion",
                    /*needs_graph=*/true,
                    [](const HeuristicContext& context) {
                      return NavigationRule(context.graph);
                    }),
          RuleEntry(
              "smart-sra",
              "heur4: Smart-SRA maximal topology+time consistent sessions",
              /*needs_graph=*/true,
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

Result<SessionizeSinkFactory> HeuristicRegistry::CreateSinkFactory(
    const std::string& name, const HeuristicContext& context) const {
  WUM_ASSIGN_OR_RETURN(const Entry* entry, FindChecked(name, context));
  return entry->make_sink(context);
}

}  // namespace wum
