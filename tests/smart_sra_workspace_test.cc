// Smart-SRA phase 2's allocation contract: once a workspace has held a
// candidate, phase 2 on that candidate makes no heap allocation, and a
// pathological candidate leaves no more than
// SmartSra::kWorkspaceRetainedEntries entries behind.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.h"
#include "wum/common/random.h"
#include "wum/session/smart_sra.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

std::vector<Session> PathsOf(const SmartSra::Workspace& workspace) {
  std::vector<Session> paths;
  for (std::size_t k = 0; k < workspace.num_paths(); ++k) {
    const std::span<const PageRequest> path = workspace.path(k);
    paths.push_back(Session{{path.begin(), path.end()}});
  }
  return paths;
}

// Runs phase 2 twice into one workspace: the second (warm) run must make
// no allocation and give the sessions Phase2(const Session&) gives.
void ExpectWarmRunAllocationFree(const WebGraph& graph,
                                 const Session& candidate) {
  const SmartSra algorithm(&graph);
  SmartSra::Workspace workspace;
  ASSERT_TRUE(algorithm.Phase2(candidate.requests, &workspace).ok());

  const std::uint64_t before = testutil::AllocationCount();
  const Status status = algorithm.Phase2(candidate.requests, &workspace);
  const std::uint64_t allocations = testutil::AllocationCount() - before;

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(allocations, 0u);
  Result<std::vector<Session>> expected = algorithm.Phase2(candidate);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(PathsOf(workspace), *expected);
}

TEST(SmartSraWorkspaceTest, WarmChainIsAllocationFree) {
  WebGraph graph(20);
  std::vector<PageId> pages;
  std::vector<TimeSeconds> times;
  for (PageId page = 0; page < 20; ++page) {
    if (page + 1 < 20) graph.AddLink(page, page + 1);
    pages.push_back(page);
    times.push_back(30 * static_cast<TimeSeconds>(page));
  }
  ExpectWarmRunAllocationFree(graph, MakeSession(pages, times));
}

TEST(SmartSraWorkspaceTest, WarmPaperExampleIsAllocationFree) {
  // Figure 1 topology, Table 4 candidate: three maximal sessions through
  // the round loop.
  ExpectWarmRunAllocationFree(
      MakeFigure1Topology(),
      MakeSession({0, 2, 1, 5, 4, 3}, {Minutes(0), Minutes(6), Minutes(9),
                                       Minutes(12), Minutes(14),
                                       Minutes(15)}));
}

TEST(SmartSraWorkspaceTest, WarmDuplicateOccurrencesAreAllocationFree) {
  WebGraph graph(2);
  graph.AddLink(0, 1);
  ExpectWarmRunAllocationFree(graph, MakeSession({0, 0, 1}, {0, 30, 60}));
}

TEST(SmartSraWorkspaceTest, OverflowingCandidateLeavesBoundedCapacity) {
  // 1,000 uniformly random pages of a 300-page site inside 25 minutes:
  // the maximal paths overflow max_sessions_per_candidate.
  Rng rng(1);
  Result<WebGraph> graph = GenerateUniformSite(SiteGeneratorOptions(), &rng);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Session candidate;
  for (int i = 0; i < 1000; ++i) {
    candidate.requests.push_back(
        PageRequest{static_cast<PageId>(rng.NextBounded(graph->num_pages())),
                    static_cast<TimeSeconds>(i * 3 / 2)});
  }
  const SmartSra algorithm(&*graph);
  SmartSra::Workspace workspace;
  const Status status = algorithm.Phase2(candidate.requests, &workspace);
  EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
  EXPECT_EQ(workspace.num_paths(), 0u);
  EXPECT_LE(workspace.retained_entries(),
            SmartSra::kWorkspaceRetainedEntries);

  // The trimmed workspace still serves the next candidate.
  const Session next = MakeSession({0}, {0});
  ASSERT_TRUE(algorithm.Phase2(next.requests, &workspace).ok());
  EXPECT_EQ(PathsOf(workspace), std::vector<Session>{next});
}

}  // namespace
}  // namespace wum
