// End-to-end integration: the full reactive deployment (CLF records ->
// threaded driver -> filters -> incremental Smart-SRA) must produce
// byte-identical sessions to the batch path (partition -> SmartSra), and
// the whole simulate -> log -> reconstruct -> evaluate loop must be
// reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/eval/accuracy.h"
#include "wum/eval/experiment.h"
#include "wum/obs/metrics.h"
#include "wum/session/smart_sra.h"
#include "wum/simulator/workload.h"
#include "wum/stream/engine.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/stream/threaded_driver.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

struct WorldState {
  WebGraph graph{0};
  Workload workload;
  std::vector<LogRecord> log;
};

WorldState MakeWorld(std::uint64_t seed, std::size_t agents) {
  WorldState world;
  Rng rng(seed);
  SiteGeneratorOptions site;
  site.num_pages = 80;
  site.mean_out_degree = 6.0;
  world.graph = *GenerateUniformSite(site, &rng);
  WorkloadOptions population;
  population.num_agents = agents;
  world.workload =
      *SimulateWorkload(world.graph, AgentProfile(), population, &rng);
  world.log = CollectServerLog(world.workload.ToAgentRequests());
  return world;
}

using SessionsByUser = std::map<std::string, std::vector<Session>>;

SessionsByUser SortSessions(SessionsByUser sessions) {
  for (auto& [user, list] : sessions) {
    std::sort(list.begin(), list.end(),
              [](const Session& a, const Session& b) {
                return a.requests < b.requests;
              });
  }
  return sessions;
}

TEST(EndToEndTest, ThreadedStreamingEqualsBatchReconstruction) {
  WorldState world = MakeWorld(314159, 120);

  // Batch path: partition the log records, run batch Smart-SRA.
  UserPartitioner partitioner(world.graph.num_pages());
  for (const LogRecord& record : world.log) {
    ASSERT_TRUE(partitioner.Add(ViewOf(record)).ok());
  }
  SmartSra batch(&world.graph);
  SessionsByUser batch_sessions;
  for (const UserStream& user : std::move(partitioner).Finish().streams) {
    Result<std::vector<Session>> sessions = batch.Reconstruct(user.requests);
    ASSERT_TRUE(sessions.ok());
    const std::string ip(
        SplitUserKey(user.user_key, UserIdentity::kClientIp).first);
    batch_sessions[ip] = std::move(sessions).ValueOrDie();
  }

  // Streaming path: cleaned records through the threaded driver into
  // the sessionize sink.
  SessionsByUser streamed_sessions;
  CallbackSessionSink sink(
      [&streamed_sessions](const std::string& ip, Session session) {
        streamed_sessions[ip].push_back(std::move(session));
        return Status::OK();
      });
  RuleSessionizeSink sessionize(SmartSraRule(&world.graph, SmartSra::Options()),
                                &sink, world.graph.num_pages());
  FilterChain cleaning;
  cleaning.Add(std::make_unique<MethodFilter>());
  cleaning.Add(std::make_unique<StatusFilter>());
  {
    ThreadedDriver driver(&sessionize, 64);
    for (const LogRecord& record : world.log) {
      if (!cleaning.Keep(ViewOf(record))) continue;
      ShardBatch batch;
      batch.Append(ViewOf(record), UserIdentity::kClientIp);
      ASSERT_TRUE(driver.OfferBatch(&batch).ok());
    }
    ASSERT_TRUE(driver.Finish().ok());
  }

  EXPECT_EQ(SortSessions(std::move(batch_sessions)),
            SortSessions(std::move(streamed_sessions)));
}

// The --metrics-out deployment loop at the library level: CLF text ->
// instrumented parser -> sharded engine with a registry -> snapshot file.
// The written JSON must carry the parser and per-shard engine series, and
// the engine series must agree with the legacy EngineStats totals.
TEST(EndToEndTest, MetricsSnapshotRoundTripsThroughFile) {
  WorldState world = MakeWorld(96024, 80);
  std::string clf_text;
  for (const LogRecord& record : world.log) {
    clf_text += FormatClfLine(record) + '\n';
  }

  obs::MetricRegistry registry;
  ClfParser parser(&registry);
  std::vector<LogRecordRef> records;
  ASSERT_TRUE(parser.ParseChunk(clf_text, &records).ok());

  std::size_t sessions_seen = 0;
  CallbackSessionSink sink(
      [&sessions_seen](const std::string&, Session) {
        ++sessions_seen;
        return Status::OK();
      });
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(4)
          .set_metrics(&registry)
          .use_smart_sra(&world.graph),
      &sink);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->OfferBatch(records).ok());
  ASSERT_TRUE((*engine)->Finish().ok());

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(snapshot.CounterOrZero("clf.records_parsed"), records.size());
  std::uint64_t records_in = 0;
  std::uint64_t sessions_emitted = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string prefix = "engine.shard" + std::to_string(i) + ".";
    records_in += snapshot.CounterOrZero(prefix + "records_in");
    sessions_emitted += snapshot.CounterOrZero(prefix + "sessions_emitted");
  }
  EXPECT_EQ(records_in, total.records_in);
  EXPECT_EQ(sessions_emitted, total.sessions_emitted);
  EXPECT_EQ(sessions_emitted, sessions_seen);

  const std::string path = testing::TempDir() + "end_to_end_metrics.json";
  ASSERT_TRUE(obs::WriteMetricsFile(snapshot, path).ok());
  std::stringstream written;
  written << std::ifstream(path).rdbuf();
  EXPECT_EQ(written.str(), snapshot.ToJson());
  EXPECT_NE(written.str().find("engine.shard0.records_in"),
            std::string::npos);
  EXPECT_NE(written.str().find("clf.lines_seen"), std::string::npos);
  EXPECT_NE(written.str().find("drain_latency_us"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EndToEndTest, EvaluationIsBitReproducible) {
  WorldState a = MakeWorld(2718, 100);
  WorldState b = MakeWorld(2718, 100);
  SmartSra sra_a(&a.graph);
  SmartSra sra_b(&b.graph);
  AccuracyEvaluator eval_a(&a.graph, TimeThresholds());
  AccuracyEvaluator eval_b(&b.graph, TimeThresholds());
  Result<AccuracyResult> result_a = eval_a.Evaluate(a.workload, sra_a);
  Result<AccuracyResult> result_b = eval_b.Evaluate(b.workload, sra_b);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  EXPECT_EQ(result_a->real_sessions, result_b->real_sessions);
  EXPECT_EQ(result_a->captured_sessions, result_b->captured_sessions);
  EXPECT_EQ(result_a->correct_reconstructions,
            result_b->correct_reconstructions);
  EXPECT_DOUBLE_EQ(result_a->accuracy(), result_b->accuracy());
}

TEST(EndToEndTest, HeuristicOrderingHoldsAcrossSeeds) {
  // The headline claim, re-checked on several independent worlds: heur4
  // is the most accurate of the four on both metric definitions.
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    WorldState world = MakeWorld(seed, 200);
    auto heuristics =
        MakePaperHeuristics(&world.graph, TimeThresholds());
    AccuracyEvaluator evaluator(&world.graph, TimeThresholds());
    std::vector<double> accuracy;
    std::vector<double> recall;
    for (const auto& heuristic : heuristics) {
      Result<AccuracyResult> result =
          evaluator.Evaluate(world.workload, *heuristic);
      ASSERT_TRUE(result.ok());
      accuracy.push_back(result->accuracy());
      recall.push_back(result->capture_rate());
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_GT(accuracy[3], accuracy[i]) << "seed " << seed;
      EXPECT_GT(recall[3], recall[i]) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace wum
