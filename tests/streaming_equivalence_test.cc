// DESIGN.md §6.6: streaming and batch reconstruction agree. Per user this
// holds by construction (the batch Sessionizer folds the streaming rule;
// see session/sessionizer.h), so the per-user legs check each fold
// against an oracle on simulator workloads instead, and the
// ShardedEngine legs check that the sharded StreamEngine (shard routing,
// user tables, run delivery) reproduces the batch per-user sessions at
// 1, 2 and 8 shards for all four heuristics.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <span>

#include "cut_oracle.h"
#include "wum/session/navigation_heuristic.h"
#include "wum/session/smart_sra.h"
#include "wum/session/time_heuristics.h"
#include "wum/simulator/agent_simulator.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

void ExpectSameSessions(const std::vector<Session>& batch,
                        std::vector<Session> streaming) {
  // Smart-SRA emits per closed candidate; order within a candidate can
  // differ from the batch dedup ordering, so compare as sorted sets.
  std::vector<Session> batch_sorted = batch;
  auto by_requests = [](const Session& a, const Session& b) {
    return a.requests < b.requests;
  };
  std::sort(batch_sorted.begin(), batch_sorted.end(), by_requests);
  std::sort(streaming.begin(), streaming.end(), by_requests);
  EXPECT_EQ(batch_sorted, streaming);
}

class StreamingEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng site_rng(11);
    SiteGeneratorOptions options;
    options.num_pages = 70;
    options.mean_out_degree = 5.0;
    graph_ = *GenerateUniformSite(options, &site_rng);
  }

  std::vector<std::vector<PageRequest>> SimulatedStreams() {
    AgentSimulator simulator(&graph_, AgentProfile());
    Rng rng(GetParam());
    std::vector<std::vector<PageRequest>> streams;
    for (int agent = 0; agent < 20; ++agent) {
      Rng agent_rng = rng.Fork();
      streams.push_back(
          simulator.SimulateAgent(0, &agent_rng)->server_requests);
    }
    return streams;
  }

  /// One server-style log: each agent becomes a distinct client IP and
  /// all streams are interleaved globally by timestamp (stable, so each
  /// user's order is preserved — the same shape a live ingest sees).
  static std::vector<LogRecord> InterleavedLog(
      const std::vector<std::vector<PageRequest>>& streams) {
    std::vector<LogRecord> log;
    for (std::size_t agent = 0; agent < streams.size(); ++agent) {
      for (const PageRequest& request : streams[agent]) {
        LogRecord record;
        record.client_ip = AgentIp(agent);
        record.url = PageUrl(request.page);
        record.timestamp = request.timestamp;
        log.push_back(std::move(record));
      }
    }
    std::stable_sort(log.begin(), log.end(),
                     [](const LogRecord& a, const LogRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
    return log;
  }

  static std::string AgentIp(std::size_t agent) {
    return "10.0.0." + std::to_string(agent);
  }

  /// Runs the interleaved log through the engine at 1, 2 and 8 shards;
  /// each shard count must reproduce the batch heuristic's per-user
  /// session multiset exactly.
  void CheckShardedEngineMatchesBatch(
      const Sessionizer& batch,
      const std::function<void(EngineOptions&)>& choose_heuristic) {
    const std::vector<std::vector<PageRequest>> streams = SimulatedStreams();
    const std::vector<LogRecord> log = InterleavedLog(streams);
    for (const std::size_t shards : {1u, 2u, 8u}) {
      std::map<std::string, std::vector<Session>> by_user;
      CallbackSessionSink sink(
          [&by_user](const std::string& user_key, Session session) {
            by_user[user_key].push_back(std::move(session));
            return Status::OK();
          });
      EngineOptions options;
      options.set_num_shards(shards)
          .set_queue_capacity(128)
          .set_num_pages(graph_.num_pages());
      choose_heuristic(options);
      Result<std::unique_ptr<StreamEngine>> engine =
          StreamEngine::Create(std::move(options), &sink);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (const LogRecord& record : log) {
        ASSERT_TRUE((*engine)->Offer(record).ok());
      }
      ASSERT_TRUE((*engine)->Finish().ok());
      EXPECT_EQ((*engine)->TotalStats().records_in, log.size());
      for (std::size_t agent = 0; agent < streams.size(); ++agent) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " agent=" + std::to_string(agent));
        ExpectSameSessions(*batch.Reconstruct(streams[agent]),
                           by_user[AgentIp(agent)]);
      }
    }
  }

  WebGraph graph_{0};
};

TEST_P(StreamingEquivalenceTest, SmartSra) {
  // The rule's online phase 1 cuts where Phase1 does, and those cuts are
  // forced; phase 2 then runs on each candidate.
  SmartSra batch(&graph_);
  const TimeThresholds& t = batch.options().thresholds;
  for (const auto& stream : SimulatedStreams()) {
    const std::vector<Session> candidates = batch.Phase1(stream);
    ExpectForcedCutPartition(candidates, stream, [&t](const Session& s) {
      return s.Duration() > t.max_session_duration ||
             !SatisfiesTimestampRule(s, t.max_page_stay);
    });
    std::vector<Session> phase2;
    for (const Session& candidate : candidates) {
      Result<std::vector<Session>> sessions = batch.Phase2(candidate);
      ASSERT_TRUE(sessions.ok());
      phase2.insert(phase2.end(), sessions->begin(), sessions->end());
    }
    ExpectSameSessions(*batch.Reconstruct(stream), phase2);
  }
}

TEST_P(StreamingEquivalenceTest, Duration) {
  SessionDurationSessionizer batch(Minutes(30));
  for (const auto& stream : SimulatedStreams()) {
    ExpectForcedCutPartition(
        *batch.Reconstruct(stream), stream,
        [](const Session& s) { return s.Duration() > Minutes(30); });
  }
}

TEST_P(StreamingEquivalenceTest, PageStay) {
  PageStaySessionizer batch(Minutes(10));
  for (const auto& stream : SimulatedStreams()) {
    ExpectForcedCutPartition(*batch.Reconstruct(stream), stream,
                             [](const Session& s) {
                               return !SatisfiesTimestampRule(s, Minutes(10));
                             });
  }
}

TEST_P(StreamingEquivalenceTest, Navigation) {
  // heur3's oracle: every step is a hyperlink or a backward move to a page
  // already in the session, the log is a subsequence of the output, and
  // every cut is forced (no page of a session links to the next one's
  // first page).
  NavigationSessionizer batch(&graph_);
  for (const auto& stream : SimulatedStreams()) {
    Result<std::vector<Session>> sessions = batch.Reconstruct(stream);
    ASSERT_TRUE(sessions.ok());
    std::size_t matched = 0;
    for (std::size_t k = 0; k < sessions->size(); ++k) {
      const std::vector<PageRequest>& requests = (*sessions)[k].requests;
      for (std::size_t j = 0; j < requests.size(); ++j) {
        if (matched < stream.size() && requests[j] == stream[matched]) {
          ++matched;
        }
        if (j == 0) continue;
        const bool linked =
            graph_.HasLink(requests[j - 1].page, requests[j].page);
        const bool revisit = std::any_of(
            requests.begin(), requests.begin() + j,
            [&](const PageRequest& r) { return r.page == requests[j].page; });
        EXPECT_TRUE(linked || revisit) << SessionToString((*sessions)[k]);
      }
      if (k == 0) continue;
      for (const PageRequest& r : (*sessions)[k - 1].requests) {
        EXPECT_FALSE(graph_.HasLink(r.page, requests.front().page))
            << "unforced cut before " << SessionToString((*sessions)[k]);
      }
    }
    EXPECT_EQ(matched, stream.size());
  }
}

// Sharded engine equivalence (acceptance: every heuristic at 1/2/8
// shards reproduces the batch per-user session multiset).

TEST_P(StreamingEquivalenceTest, ShardedEngineSmartSra) {
  SmartSra batch(&graph_);
  CheckShardedEngineMatchesBatch(
      batch, [this](EngineOptions& options) { options.use_smart_sra(&graph_); });
}

TEST_P(StreamingEquivalenceTest, ShardedEngineDuration) {
  SessionDurationSessionizer batch;
  CheckShardedEngineMatchesBatch(
      batch, [](EngineOptions& options) { options.use_duration(); });
}

TEST_P(StreamingEquivalenceTest, ShardedEnginePageStay) {
  PageStaySessionizer batch;
  CheckShardedEngineMatchesBatch(
      batch, [](EngineOptions& options) { options.use_page_stay(); });
}

TEST_P(StreamingEquivalenceTest, ShardedEngineNavigation) {
  NavigationSessionizer batch(&graph_);
  CheckShardedEngineMatchesBatch(batch, [this](EngineOptions& options) {
    options.use_navigation(&graph_);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Each rule emits the moment a session closes, driven directly with a
// recording emit.

TEST(StreamingEmissionTest, SmartSraEmitsAsCandidatesClose) {
  // Sessions of a closed candidate appear before later input arrives.
  WebGraph graph = MakeFigure1Topology();
  const SmartSraRule rule(&graph, SmartSra::Options());
  Session candidate;
  std::vector<Session> emitted;
  const SessionCollector emit{&emitted};
  ASSERT_TRUE(rule.OnRequest(&candidate, PageRequest{0, 0}, emit).ok());
  ASSERT_TRUE(rule.OnRequest(&candidate, PageRequest{1, 60}, emit).ok());
  EXPECT_TRUE(emitted.empty());  // candidate still open
  // Gap > 10 minutes closes the candidate; its sessions emit now.
  ASSERT_TRUE(
      rule.OnRequest(&candidate, PageRequest{5, Minutes(20)}, emit).ok());
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].PageSequence(), (std::vector<PageId>{0, 1}));
  ASSERT_TRUE(rule.Flush(&candidate, emit).ok());
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1].PageSequence(), (std::vector<PageId>{5}));
}

TEST(StreamingEmissionTest, TimeSessionizersEmitOnCut) {
  const PageStayRule rule(Minutes(10));
  Session open;
  std::vector<Session> emitted;
  const SessionCollector emit{&emitted};
  ASSERT_TRUE(rule.OnRequest(&open, PageRequest{1, 0}, emit).ok());
  EXPECT_TRUE(emitted.empty());
  ASSERT_TRUE(rule.OnRequest(&open, PageRequest{2, Minutes(11)}, emit).ok());
  ASSERT_EQ(emitted.size(), 1u);  // cut emitted immediately
  ASSERT_TRUE(rule.Flush(&open, emit).ok());
  EXPECT_EQ(emitted.size(), 2u);
}

TEST(StreamingEmissionTest, FlushIsIdempotentOnEmptyState) {
  const DurationRule rule;
  Session open;
  std::vector<Session> emitted;
  const SessionCollector emit{&emitted};
  ASSERT_TRUE(rule.Flush(&open, emit).ok());
  ASSERT_TRUE(rule.Flush(&open, emit).ok());
  EXPECT_TRUE(emitted.empty());
}

}  // namespace
}  // namespace wum
