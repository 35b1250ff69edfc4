// Batch web usage mining over a real Common Log Format file — the
// paper's full data-processing pipeline:
//
//   CLF access log -> parse -> clean (filters) -> identify users ->
//   reconstruct sessions (Smart-SRA) -> mine navigation patterns.
//
// The log file is produced here by the agent simulator (plus injected
// noise records so the cleaning stage has something to do), but the same
// code consumes any CLF log whose URLs follow the /pages/p<id>.html
// convention. Like websra_sessionize it reads the log twice and never
// holds it: a counting and crawler-spotting pass, then a cleaning pass.
//
// Usage: log_mining [LOG_PATH]  (default /tmp/websra_example_access.log)

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/ingest/driver.h"
#include "wum/mining/apriori_all.h"
#include "wum/session/smart_sra.h"
#include "wum/simulator/workload.h"
#include "wum/topology/site_generator.h"

namespace {

// Writes the simulated access log, sprinkling in the traffic a real
// server sees: embedded resources, robots, failed requests.
wum::Status WriteNoisyLog(const wum::WebGraph& graph,
                          const std::string& path, wum::Rng* rng,
                          std::size_t* agents_written) {
  wum::WorkloadOptions population;
  population.num_agents = 200;
  WUM_ASSIGN_OR_RETURN(
      wum::Workload workload,
      wum::SimulateWorkload(graph, wum::AgentProfile(), population, rng));
  *agents_written = workload.agents.size();
  std::vector<wum::LogRecord> log =
      wum::CollectServerLog(workload.ToAgentRequests());

  std::ofstream file(path);
  if (!file) return wum::Status::IoError("cannot open " + path);
  wum::ClfWriter writer(&file);
  std::uint64_t noise = 0;
  for (const wum::LogRecord& record : log) {
    writer.Write(record);
    if (rng->Bernoulli(0.25)) {  // embedded image fetched with the page
      wum::LogRecord image = record;
      image.url = "/img/banner" + std::to_string(noise++ % 7) + ".gif";
      image.bytes = 412;
      writer.Write(image);
    }
    if (rng->Bernoulli(0.02)) {  // broken link
      wum::LogRecord missing = record;
      missing.url = "/pages/deleted.html";
      missing.status_code = 404;
      missing.bytes = -1;
      writer.Write(missing);
    }
  }
  // A crawler announces itself and then sweeps a few pages.
  wum::LogRecord crawler;
  crawler.client_ip = "203.0.113.99";
  crawler.timestamp = log.empty() ? 0 : log.front().timestamp;
  crawler.url = "/robots.txt";
  crawler.bytes = 68;
  writer.Write(crawler);
  for (int i = 0; i < 25; ++i) {
    crawler.url = wum::PageUrl(static_cast<std::uint32_t>(i));
    crawler.timestamp += 1;
    writer.Write(crawler);
  }
  std::cout << "wrote " << writer.records_written() << " CLF records to "
            << path << "\n";
  return wum::Status::OK();
}

wum::Status Run(const std::string& log_path) {
  wum::Rng rng(424242);
  wum::SiteGeneratorOptions site;  // Table 5 site
  WUM_ASSIGN_OR_RETURN(wum::WebGraph graph,
                       wum::GenerateUniformSite(site, &rng));
  std::size_t agents_written = 0;
  WUM_RETURN_NOT_OK(WriteNoisyLog(graph, log_path, &rng, &agents_written));

  // --- Parse, and spot crawlers ---------------------------------------
  wum::ClfParser parser;
  auto robot_filter = std::make_unique<wum::RobotFilter>();
  WUM_RETURN_NOT_OK(wum::ingest::ParseFile(
      log_path, &parser, [&](std::span<const wum::LogRecordRef> records) {
        for (const wum::LogRecordRef& record : records) {
          robot_filter->Observe(record);
        }
        return wum::Status::OK();
      }));
  std::cout << "parsed " << parser.stats().records_parsed << " records ("
            << parser.stats().lines_rejected << " malformed lines)\n";

  // --- Clean and identify users ---------------------------------------
  wum::FilterChain chain = wum::FilterChain::Standard();
  chain.Add(std::move(robot_filter));
  wum::UserPartitioner partitioner(graph.num_pages());
  std::size_t cleaned = 0;
  wum::ClfParser plain;
  WUM_RETURN_NOT_OK(wum::ingest::ParseFile(
      log_path, &plain,
      [&](std::span<const wum::LogRecordRef> records) -> wum::Status {
        for (const wum::LogRecordRef& record : records) {
          if (!chain.Keep(record)) continue;
          ++cleaned;
          WUM_RETURN_NOT_OK(partitioner.Add(record));
        }
        return wum::Status::OK();
      }));
  std::cout << "cleaning kept " << cleaned << " page views:";
  for (const auto& stat : chain.stats()) {
    std::cout << " " << stat.name << "-dropped=" << stat.dropped;
  }
  std::cout << "\n";
  const wum::PartitionResult partition = std::move(partitioner).Finish();
  std::cout << "identified " << partition.streams.size()
            << " users by IP (simulated " << agents_written << ")\n";

  // --- Reconstruct sessions -------------------------------------------
  wum::SmartSra smart_sra(&graph);
  std::vector<std::vector<wum::PageId>> session_sequences;
  for (const wum::UserStream& user : partition.streams) {
    WUM_ASSIGN_OR_RETURN(std::vector<wum::Session> sessions,
                         smart_sra.Reconstruct(user.requests));
    for (const wum::Session& session : sessions) {
      session_sequences.push_back(session.PageSequence());
    }
  }
  std::cout << "Smart-SRA reconstructed " << session_sequences.size()
            << " sessions\n";

  // --- Mine navigation patterns ---------------------------------------
  wum::AprioriOptions mining;
  mining.min_support =
      std::max<std::size_t>(3, session_sequences.size() / 400);
  mining.mode = wum::MatchMode::kContiguous;
  wum::AprioriAllMiner miner(mining);
  WUM_ASSIGN_OR_RETURN(std::vector<wum::SequentialPattern> patterns,
                       miner.Mine(session_sequences));
  std::vector<wum::SequentialPattern> maximal = wum::FilterMaximalPatterns(
      patterns, wum::MatchMode::kContiguous);
  std::cout << "\nfrequent navigation paths (support >= "
            << mining.min_support << "): " << patterns.size() << " total, "
            << maximal.size() << " maximal; longest maximal paths:\n";
  std::sort(maximal.begin(), maximal.end(),
            [](const wum::SequentialPattern& a,
               const wum::SequentialPattern& b) {
              if (a.pages.size() != b.pages.size()) {
                return a.pages.size() > b.pages.size();
              }
              return a.support > b.support;
            });
  for (std::size_t i = 0; i < maximal.size() && i < 8; ++i) {
    std::cout << "  " << wum::PatternToString(maximal[i]) << "\n";
  }
  return wum::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const wum::Status status =
      Run(argc > 1 ? argv[1] : "/tmp/websra_example_access.log");
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
