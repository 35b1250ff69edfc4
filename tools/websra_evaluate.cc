// websra_evaluate: scores a reconstructed session file against the
// simulator's ground truth with the paper's real-accuracy metric.

#include <iostream>
#include <map>

#include "tool_util.h"
#include "wum/common/table.h"
#include "wum/eval/accuracy.h"
#include "wum/session/session_io.h"
#include "wum/topology/graph_io.h"

namespace {

constexpr char kUsage[] =
    "usage: websra_evaluate --graph FILE --truth FILE --sessions FILE\n"
    "  [--relation substring|subsequence] [--no-validity]\n"
    "\n"
    "Computes the paper's real accuracy: the fraction of ground-truth\n"
    "sessions occurring contiguously inside an (eligible) reconstructed\n"
    "session of the same user. --no-validity drops the §5.1 requirement\n"
    "that a capturing session satisfies the topology+timestamp rules.\n";

wum::Status Run(const wum_tools::Flags& flags) {
  WUM_RETURN_NOT_OK(flags.CheckKnown(
      {"graph", "truth", "sessions", "relation", "no-validity"}));
  WUM_ASSIGN_OR_RETURN(std::string graph_path, flags.GetRequired("graph"));
  WUM_ASSIGN_OR_RETURN(std::string truth_path, flags.GetRequired("truth"));
  WUM_ASSIGN_OR_RETURN(std::string sessions_path,
                       flags.GetRequired("sessions"));
  WUM_ASSIGN_OR_RETURN(wum::WebGraph graph, wum::ReadGraphFile(graph_path));
  WUM_ASSIGN_OR_RETURN(std::vector<wum::UserSession> truth,
                       wum::ReadSessionsFile(truth_path));
  WUM_ASSIGN_OR_RETURN(std::vector<wum::UserSession> reconstructed,
                       wum::ReadSessionsFile(sessions_path));

  const std::string relation_name = flags.GetString("relation", "substring");
  wum::CaptureRelation relation;
  if (relation_name == "substring") {
    relation = wum::CaptureRelation::kSubstring;
  } else if (relation_name == "subsequence") {
    relation = wum::CaptureRelation::kSubsequence;
  } else {
    return flags.Invalid("unknown relation '" + relation_name + "'");
  }
  const bool require_valid = !flags.Has("no-validity");
  const wum::TimeThresholds thresholds;

  // Eligible reconstructed sequences per user key.
  std::map<std::string, std::vector<std::vector<wum::PageId>>> by_user;
  std::size_t eligible = 0;
  for (const wum::UserSession& entry : reconstructed) {
    const bool valid =
        !require_valid ||
        (wum::SatisfiesTopologyRule(entry.session, graph) &&
         wum::SatisfiesTimestampRule(entry.session,
                                     thresholds.max_page_stay));
    if (valid) {
      by_user[entry.user_key].push_back(entry.session.PageSequence());
      ++eligible;
    }
  }

  // Ground truth grouped per user, for the reconstruction-side count.
  std::map<std::string, std::vector<std::vector<wum::PageId>>> truth_by_user;
  for (const wum::UserSession& real : truth) {
    truth_by_user[real.user_key].push_back(real.session.PageSequence());
  }

  std::size_t captured = 0;
  for (const wum::UserSession& real : truth) {
    auto it = by_user.find(real.user_key);
    if (it != by_user.end() &&
        wum::IsCaptured(real.session.PageSequence(), it->second, relation)) {
      ++captured;
    }
  }
  std::size_t correct = 0;
  for (const auto& [user, candidates] : by_user) {
    auto it = truth_by_user.find(user);
    if (it == truth_by_user.end()) continue;
    for (const auto& candidate : candidates) {
      for (const auto& real : it->second) {
        const bool hit = relation == wum::CaptureRelation::kSubstring
                             ? wum::ContainsAsSubstring(candidate, real)
                             : wum::ContainsAsSubsequence(candidate, real);
        if (hit) {
          ++correct;
          break;
        }
      }
    }
  }

  wum::Table table({"metric", "value"});
  table.AddRow({"ground-truth sessions", std::to_string(truth.size())});
  table.AddRow({"reconstructed sessions",
                std::to_string(reconstructed.size())});
  table.AddRow({"eligible (valid) sessions", std::to_string(eligible)});
  table.AddRow({"correct reconstructions", std::to_string(correct)});
  table.AddRow({"real sessions captured", std::to_string(captured)});
  const double denominator = static_cast<double>(truth.size());
  const double accuracy =
      truth.empty() ? 0.0 : static_cast<double>(correct) / denominator;
  const double recall =
      truth.empty() ? 0.0 : static_cast<double>(captured) / denominator;
  table.AddRow({"real accuracy (paper metric)",
                wum::FormatDouble(accuracy * 100.0, 2) + "%"});
  table.AddRow({"recall", wum::FormatDouble(recall * 100.0, 2) + "%"});
  table.Render(&std::cout);
  return wum::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv, {"no-validity"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), kUsage);
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, kUsage);
  return 0;
}
