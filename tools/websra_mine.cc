// websra_mine: frequent navigation pattern discovery over a session
// file — the WUM stage the paper's pipeline feeds.

#include <algorithm>
#include <iostream>

#include "tool_util.h"
#include "wum/mining/apriori_all.h"
#include "wum/session/session_io.h"

namespace {

constexpr char kUsage[] =
    "usage: websra_mine --sessions FILE\n"
    "  [--min-support N | --support-frac F=0.005]\n"
    "  [--mode contiguous|subsequence] [--max-length K=0]\n"
    "  [--maximal] [--top N=25]\n"
    "\n"
    "Mines frequent navigation patterns from a websra session file and\n"
    "prints them sorted by support (ties by length).\n";

wum::Status Run(const wum_tools::Flags& flags) {
  WUM_RETURN_NOT_OK(flags.CheckKnown({"sessions", "min-support",
                                      "support-frac", "mode", "max-length",
                                      "maximal", "top"}));
  WUM_ASSIGN_OR_RETURN(std::string sessions_path,
                       flags.GetRequired("sessions"));
  WUM_ASSIGN_OR_RETURN(std::vector<wum::UserSession> sessions,
                       wum::ReadSessionsFile(sessions_path));
  std::vector<std::vector<wum::PageId>> corpus;
  corpus.reserve(sessions.size());
  for (const wum::UserSession& entry : sessions) {
    corpus.push_back(entry.session.PageSequence());
  }

  wum::AprioriOptions options;
  if (flags.Has("min-support")) {
    WUM_ASSIGN_OR_RETURN(std::uint64_t support, flags.GetUint("min-support", 2));
    options.min_support = static_cast<std::size_t>(support);
  } else {
    WUM_ASSIGN_OR_RETURN(double fraction,
                         flags.GetDouble("support-frac", 0.005));
    options.min_support = std::max<std::size_t>(
        2, static_cast<std::size_t>(fraction *
                                    static_cast<double>(corpus.size())));
  }
  const std::string mode_name = flags.GetString("mode", "contiguous");
  if (mode_name == "contiguous") {
    options.mode = wum::MatchMode::kContiguous;
  } else if (mode_name == "subsequence") {
    options.mode = wum::MatchMode::kSubsequence;
  } else {
    return flags.Invalid("unknown mode '" + mode_name + "'");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t max_length, flags.GetUint("max-length", 0));
  options.max_length = static_cast<std::size_t>(max_length);

  wum::AprioriAllMiner miner(options);
  WUM_ASSIGN_OR_RETURN(std::vector<wum::SequentialPattern> patterns,
                       miner.Mine(corpus));
  if (flags.Has("maximal")) {
    patterns = wum::FilterMaximalPatterns(patterns, options.mode);
  }
  std::sort(patterns.begin(), patterns.end(),
            [](const wum::SequentialPattern& a,
               const wum::SequentialPattern& b) {
              if (a.support != b.support) return a.support > b.support;
              if (a.pages.size() != b.pages.size()) {
                return a.pages.size() > b.pages.size();
              }
              return a.pages < b.pages;
            });

  std::cout << "# " << corpus.size() << " sessions, min support "
            << options.min_support << ", " << wum::MatchModeToString(options.mode)
            << (flags.Has("maximal") ? ", maximal only" : "") << "\n"
            << "# " << patterns.size() << " patterns\n";
  WUM_ASSIGN_OR_RETURN(std::uint64_t top, flags.GetUint("top", 25));
  for (std::size_t i = 0; i < patterns.size() && i < top; ++i) {
    std::cout << wum::PatternToString(patterns[i]) << "\n";
  }
  return wum::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv, {"maximal"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), kUsage);
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, kUsage);
  return 0;
}
