#include "wum/session/navigation_heuristic.h"

#include <gtest/gtest.h>

#include "wum/topology/site_generator.h"

namespace wum {
namespace {

// Figure 1 ids: 0=P1, 1=P13, 2=P20, 3=P23, 4=P34, 5=P49.

TEST(NavigationHeuristicTest, ReproducesPaperTable2Trace) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  // Table 1 request sequence: P1, P20, P13, P49, P34, P23.
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {Minutes(0), Minutes(6), Minutes(15),
                               Minutes(29), Minutes(32), Minutes(47)})
                      .requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  // Table 2's final session: [P1, P20, P1, P13, P49, P13, P34, P23]
  // with the backward movements P1 and P13 inserted.
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ((*sessions)[0].PageSequence(),
            (std::vector<PageId>{0, 2, 0, 1, 5, 1, 4, 3}));
}

TEST(NavigationHeuristicTest, DirectLinkAppendsWithoutInsertion) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  // P1 -> P13 -> P34 -> P23 is a pure link path.
  auto requests = MakeSession({0, 1, 4, 3}, {0, 60, 120, 180}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{0, 1, 4, 3}));
}

TEST(NavigationHeuristicTest, NoReferrerStartsNewSession) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  // P20 then P34: nothing in [P20] links to P34.
  auto requests = MakeSession({2, 4}, {0, 60}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 2u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{2}));
  EXPECT_EQ((*sessions)[1].PageSequence(), (std::vector<PageId>{4}));
}

TEST(NavigationHeuristicTest, NearestReferrerChosen) {
  // Two earlier referrers exist; the nearest (largest timestamp) is used,
  // so only the pages after it are inserted as backward movements.
  WebGraph graph(4);
  graph.AddLink(0, 1);
  graph.AddLink(1, 2);
  graph.AddLink(0, 3);
  graph.AddLink(1, 3);  // both 0 and 1 link to 3; 1 is nearer
  NavigationSessionizer heuristic(&graph);
  auto requests = MakeSession({0, 1, 2, 3}, {0, 10, 20, 30}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  // Backward movement to 1 (not all the way to 0): [0, 1, 2, 1, 3].
  EXPECT_EQ((*sessions)[0].PageSequence(),
            (std::vector<PageId>{0, 1, 2, 1, 3}));
}

TEST(NavigationHeuristicTest, InsertedBackwardMovesCarryTriggerTimestamp) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  auto requests = MakeSession({0, 2, 1}, {0, 60, 120}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  const Session& session = (*sessions)[0];
  // [P1@0, P20@60, P1@120 (inserted), P13@120].
  ASSERT_EQ(session.size(), 4u);
  EXPECT_EQ(session.requests[2], (PageRequest{0, 120}));
  EXPECT_EQ(session.requests[3], (PageRequest{1, 120}));
  // Timestamps stay non-decreasing.
  EXPECT_TRUE(SatisfiesTimestampRule(session, Minutes(60)));
}

TEST(NavigationHeuristicTest, ForwardStreamsSatisfyNavigationRule) {
  // On a pure link path no backward movements are inserted, so the
  // output obeys the navigation rule. (Path-completed sessions do NOT:
  // inserted backward movements traverse edges in reverse, which is
  // exactly the interpretability problem §2.2 attributes to heur3.)
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  auto requests = MakeSession({0, 1, 5, 3}, {0, 60, 120, 180}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_TRUE(SatisfiesNavigationRule((*sessions)[0], graph));
}

TEST(NavigationHeuristicTest, PathCompletionViolatesForwardRuleByDesign) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  // Table 1 order forces backward insertions (see the Table 2 trace).
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {0, 60, 120, 180, 240, 300})
                      .requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_FALSE(SatisfiesNavigationRule((*sessions)[0], graph));
}

TEST(NavigationHeuristicTest, DefaultHasNoTimeBound) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  auto requests = MakeSession({0, 1}, {0, Minutes(600)}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->size(), 1u);
}

TEST(NavigationHeuristicTest, EmptyAndSingle) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  EXPECT_TRUE(heuristic.Reconstruct({})->empty());
  auto requests = MakeSession({3}, {0}).requests;
  EXPECT_EQ(heuristic.Reconstruct(requests)->size(), 1u);
}

TEST(NavigationHeuristicTest, RejectsInvalidStreams) {
  WebGraph graph = MakeFigure1Topology();
  NavigationSessionizer heuristic(&graph);
  auto unsorted = MakeSession({0, 1}, {60, 0}).requests;
  EXPECT_TRUE(heuristic.Reconstruct(unsorted).status().IsInvalidArgument());
  auto out_of_range = MakeSession({99}, {0}).requests;
  EXPECT_TRUE(
      heuristic.Reconstruct(out_of_range).status().IsInvalidArgument());
}

TEST(NavigationHeuristicTest, Name) {
  WebGraph graph = MakeFigure1Topology();
  EXPECT_EQ(NavigationSessionizer(&graph).name(), "heur3-navigation");
}

TEST(NavigationHeuristicTest, RepeatedPageUsesNearestOccurrence) {
  // Session [0, 1, 0, 2] where only 0 links to 2: the *second* occurrence
  // of 0 is the nearest referrer, so no backward moves are inserted
  // before the new page (0 is directly the last element? no -- it is).
  WebGraph graph(3);
  graph.AddLink(0, 1);
  graph.AddLink(1, 0);
  graph.AddLink(0, 2);
  NavigationSessionizer heuristic(&graph);
  auto requests = MakeSession({0, 1, 0, 2}, {0, 10, 20, 30}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{0, 1, 0, 2}));
}

}  // namespace
}  // namespace wum
