#include "wum/simulator/workload.h"

#include <gtest/gtest.h>

#include <set>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

WorkloadOptions SmallOptions() {
  WorkloadOptions options;
  options.num_agents = 40;
  return options;
}

TEST(WorkloadOptionsTest, Validation) {
  EXPECT_TRUE(ValidateWorkloadOptions(WorkloadOptions()).ok());
  WorkloadOptions options;
  options.num_agents = 0;
  EXPECT_TRUE(ValidateWorkloadOptions(options).IsInvalidArgument());
  options = WorkloadOptions();
  options.start_window = 0;
  EXPECT_TRUE(ValidateWorkloadOptions(options).IsInvalidArgument());
  options = WorkloadOptions();
  options.agents_per_proxy = 0;
  EXPECT_TRUE(ValidateWorkloadOptions(options).IsInvalidArgument());
}

TEST(WorkloadTest, SimulatesRequestedPopulation) {
  WebGraph graph = MakeFigure1Topology();
  Rng rng(1);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->agents.size(), 40u);
  EXPECT_GT(workload->TotalRealSessions(), 40u / 2);
  EXPECT_GT(workload->TotalServerRequests(), 0u);
  for (std::size_t i = 0; i < workload->agents.size(); ++i) {
    EXPECT_EQ(workload->agents[i].agent_id, i);
  }
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  WebGraph graph = MakeFigure1Topology();
  Rng rng_a(123);
  Rng rng_b(123);
  Result<Workload> a =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng_a);
  Result<Workload> b =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->agents.size(), b->agents.size());
  for (std::size_t i = 0; i < a->agents.size(); ++i) {
    EXPECT_EQ(a->agents[i].trace.server_requests,
              b->agents[i].trace.server_requests);
    EXPECT_EQ(a->agents[i].trace.real_sessions,
              b->agents[i].trace.real_sessions);
  }
}

TEST(WorkloadTest, DistinctIpsWithoutProxy) {
  WebGraph graph = MakeFigure1Topology();
  Rng rng(2);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng);
  ASSERT_TRUE(workload.ok());
  std::set<std::string> ips;
  for (const AgentRun& agent : workload->agents) ips.insert(agent.client_ip);
  EXPECT_EQ(ips.size(), workload->agents.size());
}

TEST(WorkloadTest, ProxyGroupsShareIps) {
  WebGraph graph = MakeFigure1Topology();
  WorkloadOptions options = SmallOptions();
  options.agents_per_proxy = 4;
  Rng rng(3);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), options, &rng);
  ASSERT_TRUE(workload.ok());
  std::set<std::string> ips;
  for (const AgentRun& agent : workload->agents) ips.insert(agent.client_ip);
  EXPECT_EQ(ips.size(), 10u);  // 40 agents / 4 per proxy
  EXPECT_EQ(workload->agents[0].client_ip, workload->agents[3].client_ip);
  EXPECT_NE(workload->agents[0].client_ip, workload->agents[4].client_ip);
}

TEST(WorkloadTest, StartTimesWithinWindow) {
  WebGraph graph = MakeFigure1Topology();
  WorkloadOptions options = SmallOptions();
  options.epoch = 1000000;
  options.start_window = 500;
  Rng rng(4);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), options, &rng);
  ASSERT_TRUE(workload.ok());
  for (const AgentRun& agent : workload->agents) {
    ASSERT_FALSE(agent.trace.events.empty());
    EXPECT_GE(agent.trace.events.front().timestamp, 1000000);
    EXPECT_LT(agent.trace.events.front().timestamp, 1000500);
  }
}

TEST(ServerLogCollectorTest, MergesSortedWithDeterministicTies) {
  std::vector<AgentRequests> agents;
  agents.push_back(
      AgentRequests{7, "10.0.0.8", {{1, 100}, {2, 300}}, {}, ""});
  agents.push_back(
      AgentRequests{3, "10.0.0.4", {{3, 100}, {4, 200}}, {}, ""});
  std::vector<LogRecord> log = CollectServerLog(agents);
  ASSERT_EQ(log.size(), 4u);
  // Tie at t=100 broken by agent id (3 before 7).
  EXPECT_EQ(log[0].client_ip, "10.0.0.4");
  EXPECT_EQ(log[1].client_ip, "10.0.0.8");
  EXPECT_EQ(log[2].timestamp, 200);
  EXPECT_EQ(log[3].timestamp, 300);
  EXPECT_EQ(log[0].url, PageUrl(3));
  EXPECT_EQ(log[0].status_code, 200);
  EXPECT_EQ(log[0].bytes, SimulatedPageBytes(3));
}

TEST(ServerLogCollectorTest, SimulatedBytesStableAndBounded) {
  for (PageId page : {0u, 1u, 299u}) {
    EXPECT_EQ(SimulatedPageBytes(page), SimulatedPageBytes(page));
    EXPECT_GE(SimulatedPageBytes(page), 2048);
    EXPECT_LT(SimulatedPageBytes(page), 2048 + 32768);
  }
  EXPECT_NE(SimulatedPageBytes(1), SimulatedPageBytes(2));
}

TEST(WorkloadTest, EndToEndCombinedLogRoundTripPreservesRecords) {
  // Full pipeline: simulate -> Combined Log Format text -> parse ->
  // byte-identical records (including referrer and user agent).
  WebGraph graph = MakeFigure1Topology();
  Rng rng(5);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng);
  ASSERT_TRUE(workload.ok());
  std::vector<LogRecord> log = CollectServerLog(workload->ToAgentRequests());

  std::stringstream text;
  ClfWriter writer(&text, /*combined=*/true);
  for (const LogRecord& record : log) writer.Write(record);

  const std::string bytes = text.str();
  ClfParser parser;
  std::vector<LogRecordRef> parsed;
  ASSERT_TRUE(parser.ParseChunk(bytes, &parsed).ok());
  EXPECT_EQ(parser.stats().lines_rejected, 0u);
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], ViewOf(log[i]));
  }
}

TEST(WorkloadTest, PlainClfWriterDropsCombinedExtras) {
  WebGraph graph = MakeFigure1Topology();
  Rng rng(5);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng);
  ASSERT_TRUE(workload.ok());
  std::vector<LogRecord> log = CollectServerLog(workload->ToAgentRequests());

  std::stringstream text;
  ClfWriter writer(&text);  // plain seven-attribute CLF
  for (const LogRecord& record : log) writer.Write(record);

  const std::string bytes = text.str();
  ClfParser parser;
  std::vector<LogRecordRef> parsed;
  ASSERT_TRUE(parser.ParseChunk(bytes, &parsed).ok());
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_TRUE(parsed[i].referrer.empty());
    EXPECT_TRUE(parsed[i].user_agent.empty());
    LogRecord stripped = log[i];
    stripped.referrer.clear();
    stripped.user_agent.clear();
    EXPECT_EQ(parsed[i], ViewOf(stripped));
  }
}

TEST(WorkloadTest, ReferrersPointAtLinkedPages) {
  WebGraph graph = MakeFigure1Topology();
  Rng rng(6);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng);
  ASSERT_TRUE(workload.ok());
  for (const AgentRun& agent : workload->agents) {
    const AgentTrace& trace = agent.trace;
    ASSERT_EQ(trace.server_requests.size(), trace.server_referrers.size());
    for (std::size_t i = 0; i < trace.server_requests.size(); ++i) {
      if (trace.server_referrers[i] != kInvalidPage) {
        EXPECT_TRUE(graph.HasLink(trace.server_referrers[i],
                                  trace.server_requests[i].page));
      }
    }
  }
}

TEST(WorkloadTest, UserAgentsComeFromThePool) {
  WebGraph graph = MakeFigure1Topology();
  Rng rng(7);
  Result<Workload> workload =
      SimulateWorkload(graph, AgentProfile(), SmallOptions(), &rng);
  ASSERT_TRUE(workload.ok());
  std::set<std::string> seen;
  for (const AgentRun& agent : workload->agents) {
    EXPECT_FALSE(agent.user_agent.empty());
    seen.insert(agent.user_agent);
  }
  EXPECT_GT(seen.size(), 1u);
  EXPECT_LE(seen.size(), 6u);
}

}  // namespace
}  // namespace wum
