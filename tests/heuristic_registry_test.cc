// HeuristicRegistry: the one heuristic-name -> factory table. Checks the
// default entries, both construction forms (batch and engine sink), and
// the error contract.

#include "wum/stream/heuristic_registry.h"

#include <gtest/gtest.h>

#include "wum/topology/site_generator.h"
#include "wum/topology/web_graph.h"

namespace wum {
namespace {

WebGraph ChainGraph() {
  WebGraph graph(4);
  graph.AddLink(0, 1);
  graph.AddLink(1, 2);
  graph.AddLink(2, 3);
  return graph;
}

std::vector<PageRequest> Requests() {
  return {{0, 0}, {1, 10}, {2, 20}, {3, 30}};
}

TEST(HeuristicRegistryTest, DefaultHasPaperHeuristicsInPaperOrder) {
  const HeuristicRegistry& registry = HeuristicRegistry::Default();
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"duration", "pagestay", "navigation",
                                      "smart-sra"}));
  EXPECT_EQ(registry.NamesForUsage(), "duration|pagestay|navigation|smart-sra");
  for (const std::string& name : registry.Names()) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    const HeuristicRegistry::Entry* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->description.empty());
  }
  // The referrer oracle is deliberately not a registry entry (different
  // input type); tools special-case it.
  EXPECT_FALSE(registry.Contains("referrer"));
}

TEST(HeuristicRegistryTest, CreateBatchBuildsEveryHeuristic) {
  const HeuristicRegistry& registry = HeuristicRegistry::Default();
  WebGraph graph = ChainGraph();
  HeuristicContext context;
  context.graph = &graph;
  for (const std::string& name : registry.Names()) {
    Result<std::unique_ptr<Sessionizer>> sessionizer =
        registry.CreateBatch(name, context);
    ASSERT_TRUE(sessionizer.ok()) << name;
    ASSERT_NE(*sessionizer, nullptr) << name;
    // Every built heuristic must run on a simple stream.
    Result<std::vector<Session>> sessions =
        (*sessionizer)->Reconstruct(Requests());
    EXPECT_TRUE(sessions.ok()) << name;
  }
}

TEST(HeuristicRegistryTest, CreateSinkFactoryBuildsEveryHeuristic) {
  const HeuristicRegistry& registry = HeuristicRegistry::Default();
  WebGraph graph = ChainGraph();
  HeuristicContext context;
  context.graph = &graph;
  for (const std::string& name : registry.Names()) {
    Result<SessionizeSinkFactory> factory =
        registry.CreateSinkFactory(name, context);
    ASSERT_TRUE(factory.ok()) << name;
    CollectingSessionSink sessions;
    std::unique_ptr<SessionizeSink> sink =
        (*factory)(&sessions, graph.num_pages(), SessionizeMetrics{});
    ASSERT_NE(sink, nullptr) << name;
    for (const PageRequest& request : Requests()) {
      LogRecord record;
      record.client_ip = "10.0.0.1";
      record.url = PageUrl(request.page);
      record.timestamp = request.timestamp;
      ShardBatch batch;
      batch.Append(ViewOf(record), UserIdentity::kClientIp);
      ASSERT_TRUE(
          sink->Accept(batch.KeyOf(batch.records[0]), batch.records[0]).ok())
          << name;
    }
    ASSERT_TRUE(sink->Finish().ok()) << name;
    EXPECT_FALSE(sessions.entries().empty()) << name;
  }
}

TEST(HeuristicRegistryTest, UnknownNameIsNotFoundAndListsValidNames) {
  HeuristicContext context;
  Result<std::unique_ptr<Sessionizer>> sessionizer =
      HeuristicRegistry::Default().CreateBatch("h5", context);
  ASSERT_FALSE(sessionizer.ok());
  EXPECT_EQ(sessionizer.status().code(), StatusCode::kNotFound);
  EXPECT_NE(sessionizer.status().message().find("smart-sra"),
            std::string::npos);
}

TEST(HeuristicRegistryTest, GraphHeuristicsRequireGraph) {
  HeuristicContext context;  // graph == nullptr
  for (const std::string name : {"navigation", "smart-sra"}) {
    Result<std::unique_ptr<Sessionizer>> batch =
        HeuristicRegistry::Default().CreateBatch(name, context);
    ASSERT_FALSE(batch.ok()) << name;
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument) << name;
    Result<SessionizeSinkFactory> sink =
        HeuristicRegistry::Default().CreateSinkFactory(name, context);
    ASSERT_FALSE(sink.ok()) << name;
    EXPECT_EQ(sink.status().code(), StatusCode::kInvalidArgument) << name;
  }
  // Time heuristics ignore the graph.
  EXPECT_TRUE(
      HeuristicRegistry::Default().CreateBatch("duration", context).ok());
  EXPECT_TRUE(
      HeuristicRegistry::Default().CreateBatch("pagestay", context).ok());
}

TEST(HeuristicRegistryTest, ThresholdsReachTheHeuristics) {
  // delta = 15s splits the 0/10/20/30 stream after the second request;
  // the paper default (30 min) would keep it whole.
  HeuristicContext context;
  context.thresholds.max_session_duration = 15;
  Result<std::unique_ptr<Sessionizer>> sessionizer =
      HeuristicRegistry::Default().CreateBatch("duration", context);
  ASSERT_TRUE(sessionizer.ok());
  Result<std::vector<Session>> sessions =
      (*sessionizer)->Reconstruct(Requests());
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->size(), 2u);
}

}  // namespace
}  // namespace wum
