// Reactive (streaming) processing: the web server's log records flow
// into a sharded StreamEngine — cleaned by the engine's filters on the
// ingest thread, then hash-partitioned by user across worker shards,
// each running per-user incremental Smart-SRA — and completed sessions
// are reported the moment they close, no offline batch pass. This is the deployment shape the
// paper's title refers to: each shard mines its own sessions right after
// delivering them, and the engine scales sessionization and mining
// across cores.

#include <iostream>

#include "wum/clf/log_filter.h"
#include "wum/mine/path_miner.h"
#include "wum/simulator/workload.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

int main() {
  wum::Rng rng(77);
  wum::SiteGeneratorOptions site;
  site.num_pages = 40;
  site.mean_out_degree = 5.0;
  wum::Result<wum::WebGraph> graph = wum::GenerateUniformSite(site, &rng);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }

  // Simulate a morning of traffic to replay as a live stream.
  wum::WorkloadOptions population;
  population.num_agents = 30;
  population.start_window = 3600 * 4;
  wum::Result<wum::Workload> workload =
      wum::SimulateWorkload(*graph, wum::AgentProfile(), population, &rng);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  std::vector<wum::LogRecord> live_feed =
      wum::CollectServerLog(workload->ToAgentRequests());
  std::cout << "replaying " << live_feed.size()
            << " log records through the sharded stream engine...\n\n";

  // Session consumer: prints each session as it closes. The engine
  // serializes emission, so no locking is needed here even with four
  // shards running.
  std::size_t emitted = 0;
  wum::CallbackSessionSink report(
      [&emitted](const std::string& user_key, wum::Session session) {
        if (++emitted <= 12) {
          std::cout << "  [closed] " << user_key << "  "
                    << wum::SessionToString(session) << "\n";
        }
        return wum::Status::OK();
      });

  // Online analytics: one wum::mine miner per shard maintains
  // bounded-memory top-k frequent navigation paths (SpaceSaving) as
  // sessions close; queries merge the shards.
  wum::mine::MinerOptions mining;
  mining.top_k = 5;

  // The engine owns the whole chain: cleaning filters, per-user
  // incremental Smart-SRA, and a miner per shard fed after delivery. The
  // simulated log is in timestamp order, which is all the sessionizers
  // need (each user's records must arrive in order).
  wum::Result<std::unique_ptr<wum::StreamEngine>> engine =
      wum::StreamEngine::Create(
          wum::EngineOptions()
              .set_num_shards(4)
              .set_queue_capacity(256)
              .use_smart_sra(&graph.ValueOrDie())
              .set_mining(mining)
              .add_filter([] { return std::make_unique<wum::MethodFilter>(); })
              .add_filter([] { return std::make_unique<wum::StatusFilter>(); }),
          &report);
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return 1;
  }

  // The ingest thread (this one) only filters, hashes and enqueues; all
  // sessionization happens on the shard workers.
  for (const wum::LogRecord& record : live_feed) {
    wum::Status offered = (*engine)->Offer(record);
    if (!offered.ok()) {
      std::cerr << "ingest failed: " << offered.ToString() << "\n";
      return 1;
    }
  }
  wum::Status finished = (*engine)->Finish();
  if (!finished.ok()) {
    std::cerr << "engine failed: " << finished.ToString() << "\n";
    return 1;
  }

  if (emitted > 12) {
    std::cout << "  ... and " << (emitted - 12) << " more\n";
  }

  const wum::EngineStats totals = (*engine)->TotalStats();
  std::cout << "\nengine totals: " << wum::EngineStatsToString(totals) << "\n";
  const std::vector<wum::EngineStats> shards = (*engine)->ShardStats();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::cout << "  shard " << i << ": " << wum::EngineStatsToString(shards[i])
              << "\n";
  }
  std::cout << "ground truth had " << workload->TotalRealSessions()
            << " real sessions\n";

  std::cout << "\nlive top navigation pairs (SpaceSaving estimate, +-error):"
            << "\n";
  for (const auto& entry : (*engine)->mining()->TopK(5, 2)) {
    std::cout << "  P" << entry.path[0] << " -> P" << entry.path[1] << "  ~"
              << entry.count << " (+-" << entry.error << ")\n";
  }
  return 0;
}
