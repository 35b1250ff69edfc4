// websra_simulate: generates a synthetic web site, simulates a user
// population on it, and writes the three artifacts the rest of the
// toolchain consumes — the topology file, the server access log, and the
// ground-truth session file.

#include <fstream>
#include <iostream>

#include "tool_runtime.h"
#include "tool_util.h"
#include "wum/clf/clf_writer.h"
#include "wum/eval/experiment.h"
#include "wum/obs/metrics.h"
#include "wum/session/session_io.h"
#include "wum/simulator/workload.h"
#include "wum/topology/graph_io.h"

namespace {

constexpr char kUsage[] =
    "usage: websra_simulate --graph-out FILE --log-out FILE "
    "[--truth-out FILE]\n"
    "  [--pages N=300] [--out-degree D=15] [--entry-fraction F=0.05]\n"
    "  [--topology uniform|powerlaw|hierarchical]\n"
    "  [--agents N=10000] [--seed S] [--stp P=0.05] [--lpp P=0.30] "
    "[--nip P=0.30]\n"
    "  [--proxy-group K=1] [--start-window SECONDS=604800] [--combined]\n"
    "  [--metrics-out FILE]\n"
    "  [--log-level debug|info|warn|error|off]\n"
    "  [--format text|binary]\n"
    "\n"
    "Writes a websra topology file, a Common Log Format access log\n"
    "(Combined format with --combined) and, optionally, the simulator's\n"
    "ground-truth sessions for websra_evaluate. --metrics-out dumps the\n"
    "simulator's generation-throughput metrics (a wum::obs JSON\n"
    "snapshot) and summarizes them on stdout. --log-level (default\n"
    "warn) controls the structured key=value diagnostics on stderr.\n"
    "--format selects the --truth-out serialization (downstream readers\n"
    "auto-detect either).\n";

wum::Result<wum::TopologyModel> ParseTopology(const wum_tools::Flags& flags) {
  const std::string name = flags.GetString("topology", "uniform");
  if (name == "uniform") return wum::TopologyModel::kUniform;
  if (name == "powerlaw") return wum::TopologyModel::kPowerLaw;
  if (name == "hierarchical") return wum::TopologyModel::kHierarchical;
  return flags.Invalid("unknown topology '" + name + "'");
}

wum::Status Run(const wum_tools::Flags& flags) {
  const wum_tools::RuntimeFeatures features{};
  WUM_RETURN_NOT_OK(flags.CheckKnown(wum_tools::ToolRuntime::WithFlags(
      {"graph-out", "log-out", "truth-out", "pages", "out-degree",
       "entry-fraction", "topology", "agents", "seed", "stp", "lpp", "nip",
       "proxy-group", "start-window", "combined", "format"},
      features)));
  WUM_ASSIGN_OR_RETURN(std::string graph_path, flags.GetRequired("graph-out"));
  WUM_ASSIGN_OR_RETURN(std::string log_path, flags.GetRequired("log-out"));

  wum::SiteGeneratorOptions site;
  WUM_ASSIGN_OR_RETURN(std::uint64_t pages, flags.GetUint("pages", 300));
  site.num_pages = static_cast<std::size_t>(pages);
  WUM_ASSIGN_OR_RETURN(site.mean_out_degree,
                       flags.GetDouble("out-degree", 15.0));
  WUM_ASSIGN_OR_RETURN(site.start_page_fraction,
                       flags.GetDouble("entry-fraction", 0.05));
  WUM_ASSIGN_OR_RETURN(wum::TopologyModel model, ParseTopology(flags));

  wum::AgentProfile profile;
  WUM_ASSIGN_OR_RETURN(profile.stp, flags.GetDouble("stp", 0.05));
  WUM_ASSIGN_OR_RETURN(profile.lpp, flags.GetDouble("lpp", 0.30));
  WUM_ASSIGN_OR_RETURN(profile.nip, flags.GetDouble("nip", 0.30));

  wum::WorkloadOptions population;
  WUM_ASSIGN_OR_RETURN(std::uint64_t agents, flags.GetUint("agents", 10000));
  population.num_agents = static_cast<std::size_t>(agents);
  WUM_ASSIGN_OR_RETURN(std::uint64_t proxy_group,
                       flags.GetUint("proxy-group", 1));
  population.agents_per_proxy = static_cast<std::size_t>(proxy_group);
  WUM_ASSIGN_OR_RETURN(std::uint64_t window,
                       flags.GetUint("start-window", 604800));
  population.start_window = static_cast<wum::TimeSeconds>(window);

  WUM_ASSIGN_OR_RETURN(std::uint64_t seed, flags.GetUint("seed", 20060102));
  wum::Rng rng(seed);

  // Observability (shared websra_* flags): --metrics-out activates the
  // registry, --log-level tunes the structured diagnostics.
  WUM_ASSIGN_OR_RETURN(wum_tools::ToolRuntime runtime,
                       wum_tools::ToolRuntime::Start(flags, features));
  wum::obs::MetricRegistry* metrics = runtime.metrics();

  WUM_ASSIGN_OR_RETURN(wum::WebGraph graph,
                       wum::GenerateSite(model, site, &rng));
  WUM_RETURN_NOT_OK(wum::WriteGraphFile(graph, graph_path));
  std::cout << "wrote topology (" << graph.num_pages() << " pages, "
            << graph.num_edges() << " links) to " << graph_path << "\n";

  WUM_ASSIGN_OR_RETURN(
      wum::Workload workload,
      wum::SimulateWorkload(graph, profile, population, &rng, metrics));
  std::vector<wum::LogRecord> log =
      wum::CollectServerLog(workload.ToAgentRequests());
  {
    std::ofstream out(log_path);
    if (!out) return wum::Status::IoError("cannot open " + log_path);
    wum::ClfWriter writer(&out, flags.Has("combined"));
    for (const wum::LogRecord& record : log) writer.Write(record);
    out.flush();
    if (!out) return wum::Status::IoError("write failed: " + log_path);
    std::cout << "wrote " << writer.records_written() << " log records to "
              << log_path << (flags.Has("combined") ? " (combined format)" : "")
              << "\n";
  }

  if (flags.Has("truth-out")) {
    std::vector<wum::UserSession> truth;
    for (const wum::AgentRun& agent : workload.agents) {
      for (const wum::Session& session : agent.trace.real_sessions) {
        truth.push_back(wum::UserSession{agent.client_ip, session});
      }
    }
    const std::string format_name = flags.GetString("format", "text");
    wum::SessionFormat format;
    if (format_name == "text") {
      format = wum::SessionFormat::kText;
    } else if (format_name == "binary") {
      format = wum::SessionFormat::kBinary;
    } else {
      return flags.Invalid("unknown format '" + format_name + "'");
    }
    const std::string truth_path = flags.GetString("truth-out", "");
    WUM_RETURN_NOT_OK(wum::WriteSessionsFile(truth, truth_path, format));
    std::cout << "wrote " << truth.size() << " ground-truth sessions to "
              << truth_path << "\n";
  }
  // Same end-of-run surface as websra_sessionize: summary table on
  // stdout whenever metrics are on, plus the --metrics-out file.
  return runtime.Finish(flags);
}

}  // namespace

int main(int argc, char** argv) {
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv, {"combined"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), kUsage);
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, kUsage);
  return 0;
}
