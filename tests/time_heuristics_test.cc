#include "wum/session/time_heuristics.h"

#include <gtest/gtest.h>

#include "cut_oracle.h"
#include "wum/common/random.h"
#include "wum/session/smart_sra.h"

namespace wum {
namespace {

// Table 1 of the paper: pages P1, P20, P13, P49, P34, P23 at minutes
// 0, 6, 15, 29, 32, 47.
std::vector<PageRequest> Table1Stream() {
  return MakeSession({1, 20, 13, 49, 34, 23},
                     {Minutes(0), Minutes(6), Minutes(15), Minutes(29),
                      Minutes(32), Minutes(47)})
      .requests;
}

TEST(SessionDurationTest, ReproducesPaperTable1Split) {
  // With delta = 30 min the paper obtains [P1, P20, P13, P49] and
  // [P34, P23].
  SessionDurationSessionizer heuristic(Minutes(30));
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(Table1Stream());
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 2u);
  EXPECT_EQ((*sessions)[0].PageSequence(),
            (std::vector<PageId>{1, 20, 13, 49}));
  EXPECT_EQ((*sessions)[1].PageSequence(), (std::vector<PageId>{34, 23}));
}

TEST(PageStayTest, ReproducesPaperTable1Split) {
  // With rho = 10 min the paper obtains [P1, P20, P13], [P49, P34], [P23].
  PageStaySessionizer heuristic(Minutes(10));
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(Table1Stream());
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 3u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{1, 20, 13}));
  EXPECT_EQ((*sessions)[1].PageSequence(), (std::vector<PageId>{49, 34}));
  EXPECT_EQ((*sessions)[2].PageSequence(), (std::vector<PageId>{23}));
}

TEST(SessionDurationTest, BoundaryIsInclusive) {
  // t_i - t_0 <= delta keeps the page; the first page beyond starts anew.
  SessionDurationSessionizer heuristic(100);
  auto requests = MakeSession({0, 1, 2}, {0, 100, 101}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 2u);
  EXPECT_EQ((*sessions)[0].size(), 2u);
  EXPECT_EQ((*sessions)[1].size(), 1u);
}

TEST(PageStayTest, BoundaryIsInclusive) {
  PageStaySessionizer heuristic(100);
  auto requests = MakeSession({0, 1, 2}, {0, 100, 201}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 2u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{0, 1}));
}

TEST(TimeHeuristicsTest, EmptyInputYieldsNoSessions) {
  EXPECT_TRUE(SessionDurationSessionizer().Reconstruct({})->empty());
  EXPECT_TRUE(PageStaySessionizer().Reconstruct({})->empty());
}

TEST(TimeHeuristicsTest, SingleRequest) {
  auto requests = MakeSession({5}, {1000}).requests;
  EXPECT_EQ(SessionDurationSessionizer().Reconstruct(requests)->size(), 1u);
  EXPECT_EQ(PageStaySessionizer().Reconstruct(requests)->size(), 1u);
}

TEST(TimeHeuristicsTest, RejectUnsortedInput) {
  auto requests = MakeSession({0, 1}, {100, 50}).requests;
  EXPECT_TRUE(SessionDurationSessionizer()
                  .Reconstruct(requests)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PageStaySessionizer()
                  .Reconstruct(requests)
                  .status()
                  .IsInvalidArgument());
}

TEST(TimeHeuristicsTest, Names) {
  EXPECT_EQ(SessionDurationSessionizer().name(), "heur1-duration");
  EXPECT_EQ(PageStaySessionizer().name(), "heur2-pagestay");
}

TEST(TimeHeuristicsTest, ZeroThresholdSplitsOnAnyGap) {
  PageStaySessionizer heuristic(0);
  auto requests = MakeSession({0, 1, 2}, {0, 0, 1}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 2u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{0, 1}));
}

class TimeHeuristicPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Random sorted stream with occasional large gaps.
  std::vector<PageRequest> RandomStream(Rng* rng) {
    std::vector<PageRequest> requests;
    TimeSeconds t = 0;
    const std::size_t n = 5 + rng->NextBounded(200);
    for (std::size_t i = 0; i < n; ++i) {
      t += rng->Bernoulli(0.15) ? Minutes(10) + 1 + rng->NextInRange(0, 3000)
                                : rng->NextInRange(1, 400);
      requests.push_back(
          PageRequest{static_cast<PageId>(rng->NextBounded(50)), t});
    }
    return requests;
  }
};

TEST_P(TimeHeuristicPropertyTest, DurationOutputRespectsBoundAndPartitions) {
  Rng rng(GetParam());
  const TimeSeconds max_session_duration = Minutes(30);
  SessionDurationSessionizer heuristic(max_session_duration);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageRequest> requests = RandomStream(&rng);
    Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
    ASSERT_TRUE(sessions.ok());
    std::vector<PageRequest> reassembled;
    for (const Session& session : *sessions) {
      EXPECT_LE(session.Duration(), max_session_duration);
      EXPECT_FALSE(session.empty());
      reassembled.insert(reassembled.end(), session.requests.begin(),
                         session.requests.end());
    }
    EXPECT_EQ(reassembled, requests);  // exact partition, nothing lost
  }
}

TEST_P(TimeHeuristicPropertyTest, PageStayOutputRespectsBoundAndPartitions) {
  Rng rng(GetParam() ^ 0xABCDEF);
  const TimeSeconds max_page_stay = Minutes(10);
  PageStaySessionizer heuristic(max_page_stay);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageRequest> requests = RandomStream(&rng);
    Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
    ASSERT_TRUE(sessions.ok());
    std::vector<PageRequest> reassembled;
    for (const Session& session : *sessions) {
      EXPECT_TRUE(SatisfiesTimestampRule(session, max_page_stay));
      reassembled.insert(reassembled.end(), session.requests.begin(),
                         session.requests.end());
    }
    EXPECT_EQ(reassembled, requests);
  }
}

TEST_P(TimeHeuristicPropertyTest, BothRulesSplitIsRefinementOfEach) {
  Rng rng(GetParam() ^ 0x5555);
  TimeThresholds thresholds;
  WebGraph graph(50);
  SmartSra heuristic(&graph);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageRequest> requests = RandomStream(&rng);
    std::vector<Session> sessions = heuristic.Phase1(requests);
    std::vector<PageRequest> reassembled;
    for (const Session& session : sessions) {
      EXPECT_LE(session.Duration(), thresholds.max_session_duration);
      EXPECT_TRUE(SatisfiesTimestampRule(session, thresholds.max_page_stay));
      reassembled.insert(reassembled.end(), session.requests.begin(),
                         session.requests.end());
    }
    EXPECT_EQ(reassembled, requests);
  }
}

// Every cut is forced (cut_oracle.h): with the bound and partition
// checks, the one output each rule may give. The bounds sit inside the
// random streams' small gaps (1..400 s), so gaps and spans land on both
// sides of them and now and then exactly on them.

TEST_P(TimeHeuristicPropertyTest, DurationCutsAreForced) {
  Rng rng(GetParam() ^ 0x1111);
  const TimeSeconds max_session_duration = Minutes(20);
  SessionDurationSessionizer heuristic(max_session_duration);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageRequest> requests = RandomStream(&rng);
    Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
    ASSERT_TRUE(sessions.ok());
    ExpectForcedCutPartition(*sessions, requests, [&](const Session& s) {
      return s.Duration() > max_session_duration;
    });
  }
}

TEST_P(TimeHeuristicPropertyTest, PageStayCutsAreForced) {
  Rng rng(GetParam() ^ 0x2222);
  const TimeSeconds max_page_stay = Minutes(5);
  PageStaySessionizer heuristic(max_page_stay);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageRequest> requests = RandomStream(&rng);
    Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
    ASSERT_TRUE(sessions.ok());
    ExpectForcedCutPartition(*sessions, requests, [&](const Session& s) {
      return !SatisfiesTimestampRule(s, max_page_stay);
    });
  }
}

TEST_P(TimeHeuristicPropertyTest, SmartSraPhase1CutsAreForced) {
  Rng rng(GetParam() ^ 0x3333);
  SmartSra::Options options;
  options.thresholds.max_page_stay = Minutes(5);
  options.thresholds.max_session_duration = Minutes(20);
  WebGraph graph(50);
  SmartSra heuristic(&graph, options);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageRequest> requests = RandomStream(&rng);
    ExpectForcedCutPartition(
        heuristic.Phase1(requests), requests, [&](const Session& s) {
          return s.Duration() > options.thresholds.max_session_duration ||
                 !SatisfiesTimestampRule(s, options.thresholds.max_page_stay);
        });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeHeuristicPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

}  // namespace
}  // namespace wum
