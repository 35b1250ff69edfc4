#include "wum/session/smart_sra.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "wum/topology/site_generator.h"

namespace wum {
namespace {

// Figure 1 ids: 0=P1, 1=P13, 2=P20, 3=P23, 4=P34, 5=P49.

std::vector<std::vector<PageId>> PageSequences(
    const std::vector<Session>& sessions) {
  std::vector<std::vector<PageId>> sequences;
  sequences.reserve(sessions.size());
  for (const Session& session : sessions) {
    sequences.push_back(session.PageSequence());
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

TEST(SmartSraTest, ReproducesPaperTables3And4) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  // Table 3: P1, P20, P13, P49, P34, P23 at minutes 0, 6, 9, 12, 14, 15.
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {Minutes(0), Minutes(6), Minutes(9),
                               Minutes(12), Minutes(14), Minutes(15)})
                      .requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  // The paper's three maximal sessions:
  //   [P1, P13, P34, P23], [P1, P13, P49, P23], [P1, P20, P23].
  std::vector<std::vector<PageId>> expected = {
      {0, 1, 4, 3}, {0, 1, 5, 3}, {0, 2, 3}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, Phase1MatchesBothTimeRules) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  // Table 1 timings (0, 6, 15, 29, 32, 47 min): the page-stay rule cuts
  // at 15->29 (14 min) and 32->47 (15 min).
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {Minutes(0), Minutes(6), Minutes(15),
                               Minutes(29), Minutes(32), Minutes(47)})
                      .requests;
  std::vector<Session> candidates = heuristic.Phase1(requests);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].PageSequence(), (std::vector<PageId>{0, 2, 1}));
  EXPECT_EQ(candidates[1].PageSequence(), (std::vector<PageId>{5, 4}));
  EXPECT_EQ(candidates[2].PageSequence(), (std::vector<PageId>{3}));
}

TEST(SmartSraTest, Phase1AppliesBothBounds) {
  WebGraph graph(8);
  SmartSra heuristic(&graph);
  // Gaps of 9 min each: the page-stay bound never fires, the duration
  // bound cuts after 30 minutes (pages at 0, 9, 18, 27, 36, ...).
  std::vector<PageRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(PageRequest{static_cast<PageId>(i), Minutes(9) * i});
  }
  std::vector<Session> candidates = heuristic.Phase1(requests);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].size(), 4u);  // 0, 9, 18, 27 minutes
  EXPECT_EQ(candidates[1].size(), 4u);  // 36, 45, 54, 63 minutes
}

TEST(SmartSraTest, Phase1PageStayRuleCutsFirst) {
  WebGraph graph(3);
  SmartSra heuristic(&graph);
  auto requests =
      MakeSession({0, 1, 2}, {0, Minutes(11), Minutes(12)}).requests;
  std::vector<Session> candidates = heuristic.Phase1(requests);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].PageSequence(), (std::vector<PageId>{0}));
  EXPECT_EQ(candidates[1].PageSequence(), (std::vector<PageId>{1, 2}));
}

TEST(SmartSraTest, Phase1BoundariesAreInclusive) {
  WebGraph graph(4);
  SmartSra::Options options;
  options.thresholds.max_page_stay = 150;          // rho
  options.thresholds.max_session_duration = 1000;  // delta
  SmartSra heuristic(&graph, options);
  auto sizes = [&](const std::vector<TimeSeconds>& timestamps) {
    std::vector<std::size_t> sizes;
    for (const Session& candidate : heuristic.Phase1(
             MakeSession(std::vector<PageId>(timestamps.size(), 0), timestamps)
                 .requests)) {
      sizes.push_back(candidate.size());
    }
    return sizes;
  };
  // A gap of exactly rho joins; rho + 1 cuts.
  EXPECT_EQ(sizes({0, 150}), (std::vector<std::size_t>{2}));
  EXPECT_EQ(sizes({0, 151}), (std::vector<std::size_t>{1, 1}));
  // A span of exactly delta joins; delta + 1 cuts (gaps within rho).
  std::vector<TimeSeconds> span;
  for (TimeSeconds t = 0; t <= 1000; t += 100) span.push_back(t);
  EXPECT_EQ(sizes(span), (std::vector<std::size_t>{11}));
  span.back() = 1001;
  EXPECT_EQ(sizes(span), (std::vector<std::size_t>{10, 1}));
}

TEST(SmartSraTest, OutputSatisfiesBothRules) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {Minutes(0), Minutes(6), Minutes(9),
                               Minutes(12), Minutes(14), Minutes(15)})
                      .requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  for (const Session& session : *sessions) {
    EXPECT_TRUE(SatisfiesTopologyRule(session, graph))
        << SessionToString(session);
    EXPECT_TRUE(SatisfiesTimestampRule(
        session, heuristic.options().thresholds.max_page_stay))
        << SessionToString(session);
  }
}

TEST(SmartSraTest, UnrelatedPagesBecomeSingletonSessions) {
  WebGraph graph(3);  // no edges at all
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2}, {0, 60, 120}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0}, {1}, {2}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, ExtensionRejectsBackwardTime) {
  // Topology: 0 -> 1 and 2 -> 1. Stream [0@0, 1@300, 2@540].
  // Occurrence 2 is removed in iteration 1 (nothing links to it), so the
  // session [2] exists when 1 is placed; Link[2, 1] holds but extending
  // [2@540] with 1@300 would run backwards in time and must be refused.
  WebGraph graph(3);
  graph.AddLink(0, 1);
  graph.AddLink(2, 1);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2}, {0, 300, 540}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0, 1}, {2}};
  EXPECT_EQ(PageSequences(*sessions), expected);
  for (const Session& session : *sessions) {
    EXPECT_TRUE(SatisfiesTimestampRule(session, Minutes(10)));
  }
}

TEST(SmartSraTest, ReferrerBeyondPageStayDoesNotCount) {
  // 0 -> 1 exists but 11 minutes apart: 1 opens its own session even
  // though the candidate (via an intermediate page) stays unbroken.
  WebGraph graph(3);
  graph.AddLink(0, 1);
  graph.AddLink(0, 2);
  graph.AddLink(2, 0);  // filler links; keep phase 1 in one candidate
  SmartSra heuristic(&graph);
  auto requests =
      MakeSession({0, 2, 1}, {0, Minutes(9), Minutes(11)}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  // 1's only referrer (0) is 11 min away (> rho), and 2 has no link to 1,
  // so [1] must be a separate session; [0, 2] follows the 0->2 link.
  std::vector<std::vector<PageId>> expected = {{0, 2}, {1}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, BranchingProducesAllMaximalPaths) {
  // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
  WebGraph graph(4);
  graph.AddLink(0, 1);
  graph.AddLink(0, 2);
  graph.AddLink(1, 3);
  graph.AddLink(2, 3);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2, 3}, {0, 60, 120, 180}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0, 1, 3}, {0, 2, 3}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, SessionLimitGuardsExponentialBlowup) {
  // Chain of diamonds: each layer doubles the number of maximal paths.
  constexpr int kDiamonds = 6;  // 64 paths
  WebGraph graph(3 * kDiamonds + 1);
  std::vector<PageRequest> requests;
  TimeSeconds t = 0;
  PageId junction = 0;
  requests.push_back(PageRequest{junction, t});
  for (int d = 0; d < kDiamonds; ++d) {
    PageId left = static_cast<PageId>(3 * d + 1);
    PageId right = static_cast<PageId>(3 * d + 2);
    PageId next = static_cast<PageId>(3 * d + 3);
    graph.AddLink(junction, left);
    graph.AddLink(junction, right);
    graph.AddLink(left, next);
    graph.AddLink(right, next);
    requests.push_back(PageRequest{left, t += 10});
    requests.push_back(PageRequest{right, t += 10});
    requests.push_back(PageRequest{next, t += 10});
    junction = next;
  }
  SmartSra::Options tight;
  tight.max_sessions_per_candidate = 8;
  SmartSra limited(&graph, tight);
  EXPECT_TRUE(limited.Reconstruct(requests).status().IsOutOfRange());

  SmartSra::Options roomy;
  roomy.max_sessions_per_candidate = 1 << 12;
  SmartSra unlimited(&graph, roomy);
  Result<std::vector<Session>> sessions = unlimited.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->size(), 1u << kDiamonds);
}

TEST(SmartSraTest, DeduplicationRemovesIdenticalBranches) {
  // Two occurrences of page 1 can yield identical extension sessions;
  // at minimum, dedup must leave no exact duplicates.
  WebGraph graph(3);
  graph.AddLink(0, 1);
  graph.AddLink(1, 2);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2}, {0, 10, 20}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  auto sequences = PageSequences(*sessions);
  EXPECT_EQ(std::adjacent_find(sequences.begin(), sequences.end()),
            sequences.end());
}

TEST(SmartSraTest, EmptyAndSingleInput) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  EXPECT_TRUE(heuristic.Reconstruct({})->empty());
  auto requests = MakeSession({4}, {1000}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{4}));
}

TEST(SmartSraTest, RejectsInvalidStreams) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  auto unsorted = MakeSession({0, 1}, {60, 0}).requests;
  EXPECT_TRUE(heuristic.Reconstruct(unsorted).status().IsInvalidArgument());
  auto out_of_range = MakeSession({77}, {0}).requests;
  EXPECT_TRUE(
      heuristic.Reconstruct(out_of_range).status().IsInvalidArgument());
}

TEST(SmartSraTest, Name) {
  WebGraph graph = MakeFigure1Topology();
  EXPECT_EQ(SmartSra(&graph).name(), "heur4-smart-sra");
}

TEST(SmartSraTest, Phase2HandlesDuplicateOccurrences) {
  // The same page requested twice (e.g. via a shared proxy): both
  // occurrences must survive into the output.
  WebGraph graph(2);
  graph.AddLink(0, 1);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 0, 1}, {0, 30, 60}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::size_t zero_occurrences = 0;
  for (const Session& session : *sessions) {
    for (const PageRequest& request : session.requests) {
      if (request.page == 0) ++zero_occurrences;
    }
  }
  EXPECT_GE(zero_occurrences, 2u);
}

TEST(SmartSraTest, RecoversInterleavedSessionsTheTimeHeuristicsCannot) {
  // The paper's behaviour-3 motif: user walks P1 -> P13 -> P34, backtracks
  // to P1 through the cache, then requests P20. The log is
  // [P1, P13, P34, P20]; the real sessions are [P1, P13, P34] and
  // [P1, P20]. Smart-SRA recovers both exactly.
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 4, 2}, {0, 120, 240, 420}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0, 1, 4}, {0, 2}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, EqualTimestampStartExtendsTheSessionOfItsTwin) {
  // A@0, C@1, X@5, Y@5 with A->C, A->Y, C->X, Y->X. Y is removed with C,
  // X one round later, so [A,Y] meets X although Y is the later
  // occurrence: the equal timestamps pass the gap check and X must
  // extend both sessions.
  WebGraph graph(4);  // 0=A, 1=C, 2=X, 3=Y
  graph.AddLink(0, 1);
  graph.AddLink(0, 3);
  graph.AddLink(1, 2);
  graph.AddLink(3, 2);
  SmartSra heuristic(&graph);
  const Session candidate = MakeSession({0, 1, 2, 3}, {0, 1, 5, 5});
  Result<std::vector<Session>> sessions = heuristic.Phase2(candidate);
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  const std::vector<Session> expected = {MakeSession({0, 1, 2}, {0, 1, 5}),
                                         MakeSession({0, 3, 2}, {0, 5, 5})};
  EXPECT_EQ(*sessions, expected);
}

TEST(SmartSraTest, LongPureChainIsOneSession) {
  // Past the 64 requests the chain test was once capped at.
  constexpr PageId kRequests = 100;
  WebGraph graph(kRequests);
  std::vector<PageId> pages;
  std::vector<TimeSeconds> times;
  for (PageId page = 0; page < kRequests; ++page) {
    if (page + 1 < kRequests) graph.AddLink(page, page + 1);
    pages.push_back(page);
    times.push_back(10 * static_cast<TimeSeconds>(page));
  }
  const Session candidate = MakeSession(pages, times);
  SmartSra heuristic(&graph);
  Result<std::vector<Session>> sessions = heuristic.Phase2(candidate);
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ((*sessions)[0], candidate);
  Result<std::vector<Session>> reconstructed =
      heuristic.Reconstruct(candidate.requests);
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_EQ(*reconstructed, *sessions);
}

}  // namespace
}  // namespace wum
