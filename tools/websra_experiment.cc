// websra_experiment: runs a Figure 8/9/10-style behaviour sweep with
// custom grids and population sizes — the figure benches as a
// configurable tool, so experiments can be scripted without recompiling.

#include <fstream>
#include <iostream>

#include "tool_util.h"
#include "wum/eval/report.h"

namespace {

constexpr char kUsage[] =
    "usage: websra_experiment --parameter stp|lpp|nip\n"
    "  [--values P1,P2,...]          probabilities in [0, 1)\n"
    "  [--agents N=10000] [--pages N=300] [--out-degree D=15]\n"
    "  [--topology uniform|powerlaw|hierarchical] [--seed S]\n"
    "  [--stp P=0.05] [--lpp P=0.30] [--nip P=0.30]   (fixed values)\n"
    "  [--csv PATH] [--threads N]\n"
    "\n"
    "Runs the paper's evaluation sweep for one behaviour parameter and\n"
    "prints the accuracy series of all four heuristics; the default grid\n"
    "is the paper's (STP: 1..20%, LPP/NIP: 0..90%).\n";

wum::Result<std::vector<double>> ParseValues(const std::string& text) {
  std::vector<double> values;
  for (std::string_view part : wum::SplitString(text, ',')) {
    WUM_ASSIGN_OR_RETURN(double value, wum::ParseDouble(std::string(part)));
    values.push_back(value);
  }
  return values;
}

wum::Status Run(const wum_tools::Flags& flags) {
  WUM_RETURN_NOT_OK(flags.CheckKnown(
      {"parameter", "values", "agents", "pages", "out-degree", "topology",
       "seed", "stp", "lpp", "nip", "csv", "threads"}));
  WUM_ASSIGN_OR_RETURN(std::string parameter_name,
                       flags.GetRequired("parameter"));
  wum::SweepParameter parameter;
  std::vector<double> values;
  if (parameter_name == "stp") {
    parameter = wum::SweepParameter::kStp;
    values = wum::Figure8StpValues();
  } else if (parameter_name == "lpp") {
    parameter = wum::SweepParameter::kLpp;
    values = wum::Figure9LppValues();
  } else if (parameter_name == "nip") {
    parameter = wum::SweepParameter::kNip;
    values = wum::Figure10NipValues();
  } else {
    return flags.Invalid("unknown parameter '" + parameter_name + "'");
  }
  if (flags.Has("values")) {
    wum::Result<std::vector<double>> parsed =
        ParseValues(flags.GetString("values", ""));
    WUM_RETURN_NOT_OK(flags.Check(parsed.status()));
    values = std::move(parsed).ValueOrDie();
  }

  wum::ExperimentConfig config = wum::PaperDefaults();
  WUM_ASSIGN_OR_RETURN(std::uint64_t agents, flags.GetUint("agents", 10000));
  config.workload.num_agents = static_cast<std::size_t>(agents);
  WUM_ASSIGN_OR_RETURN(std::uint64_t pages, flags.GetUint("pages", 300));
  config.site.num_pages = static_cast<std::size_t>(pages);
  WUM_ASSIGN_OR_RETURN(config.site.mean_out_degree,
                       flags.GetDouble("out-degree", 15.0));
  WUM_ASSIGN_OR_RETURN(config.seed, flags.GetUint("seed", 20060102));
  WUM_ASSIGN_OR_RETURN(config.profile.stp, flags.GetDouble("stp", 0.05));
  WUM_ASSIGN_OR_RETURN(config.profile.lpp, flags.GetDouble("lpp", 0.30));
  WUM_ASSIGN_OR_RETURN(config.profile.nip, flags.GetDouble("nip", 0.30));
  WUM_ASSIGN_OR_RETURN(std::uint64_t threads, flags.GetUint("threads", 0));
  config.num_threads = static_cast<std::size_t>(threads);
  const std::string topology = flags.GetString("topology", "uniform");
  if (topology == "uniform") {
    config.topology_model = wum::TopologyModel::kUniform;
  } else if (topology == "powerlaw") {
    config.topology_model = wum::TopologyModel::kPowerLaw;
  } else if (topology == "hierarchical") {
    config.topology_model = wum::TopologyModel::kHierarchical;
  } else {
    return flags.Invalid("unknown topology '" + topology + "'");
  }

  WUM_ASSIGN_OR_RETURN(std::vector<wum::SweepPoint> points,
                       wum::RunSweep(config, parameter, values));
  wum::RenderSweepTable(points, parameter, &std::cout);
  std::cout << "\n# " << wum::SummarizeSweepShape(points) << "\n";
  if (flags.Has("csv")) {
    const std::string csv_path = flags.GetString("csv", "");
    std::ofstream csv(csv_path);
    if (!csv) return wum::Status::IoError("cannot open " + csv_path);
    wum::RenderSweepCsv(points, parameter, &csv);
    std::cout << "# csv written to " << csv_path << "\n";
  }
  return wum::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv, {});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), kUsage);
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, kUsage);
  return 0;
}
