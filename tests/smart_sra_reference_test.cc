// Cross-checks Smart-SRA phase 2 against a brute-force reference that
// enumerates *every* maximal anchored session satisfying the
// timestamp-ordering and topology rules of a candidate, on exhaustive
// tiny inputs and random small ones.
//
// The provable relationship (and what the paper's Figure 2 algorithm
// actually guarantees) is CONTAINMENT, not equality: every emitted
// session is a maximal anchored rule-satisfying path, and every
// occurrence is covered, but the layered construction can omit some
// maximal paths — once a session was extended in an iteration, later
// alternative extensions of its former prefix are lost unless they fire
// in the same iteration. (Example: occurrences D,A,C,X,B with links
// D->C, A->X, A->B, C->B — the path [A,B] is maximal but never built,
// because B only becomes extendable after [A] was already consumed by
// X.) The paper example of Table 4 does reach equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "wum/common/random.h"
#include "wum/session/smart_sra.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

using IndexPath = std::vector<std::size_t>;

// All rule-satisfying paths over candidate occurrence indices:
// strictly increasing indices, each consecutive pair linked within rho.
// A path is *maximal* if no other rule-satisfying path contains it as a
// subsequence of occurrences. The reference builds every maximal path
// whose head has no eligible in-candidate referrer (matching Smart-SRA's
// "start page" notion) via DFS with dead-end extension detection.
std::set<std::vector<PageRequest>> ReferenceMaximalSessions(
    const Session& candidate, const WebGraph& graph, TimeSeconds rho) {
  const auto& reqs = candidate.requests;
  const std::size_t n = reqs.size();
  auto linked = [&](std::size_t from, std::size_t to) {
    const TimeSeconds gap = reqs[to].timestamp - reqs[from].timestamp;
    return gap >= 0 && gap <= rho &&
           graph.HasLink(reqs[from].page, reqs[to].page);
  };

  // Heads: occurrences with no earlier linked occurrence.
  std::vector<std::size_t> heads;
  for (std::size_t i = 0; i < n; ++i) {
    bool has_referrer = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (linked(j, i)) {
        has_referrer = true;
        break;
      }
    }
    if (!has_referrer) heads.push_back(i);
  }

  std::set<std::vector<PageRequest>> sessions;
  IndexPath path;
  auto dfs = [&](auto&& self, std::size_t last) -> void {
    bool extended = false;
    for (std::size_t next = last + 1; next < n; ++next) {
      if (linked(last, next)) {
        extended = true;
        path.push_back(next);
        self(self, next);
        path.pop_back();
      }
    }
    if (!extended) {
      std::vector<PageRequest> session;
      for (std::size_t index : path) session.push_back(reqs[index]);
      sessions.insert(std::move(session));
    }
  };
  for (std::size_t head : heads) {
    path.assign(1, head);
    dfs(dfs, head);
  }
  return sessions;
}

std::set<std::vector<PageRequest>> AsSet(const std::vector<Session>& sessions) {
  std::set<std::vector<PageRequest>> result;
  for (const Session& session : sessions) result.insert(session.requests);
  return result;
}

std::string Describe(const std::set<std::vector<PageRequest>>& sessions) {
  std::string out;
  for (const auto& requests : sessions) {
    Session session;
    session.requests = requests;
    out += "  " + SessionToString(session) + "\n";
  }
  return out;
}

void ExpectContainedInReference(const WebGraph& graph,
                                const Session& candidate,
                                bool expect_equality = false) {
  SmartSra::Options options;
  options.thresholds.max_session_duration = Minutes(100000);  // phase 2 only
  SmartSra algorithm(&graph, options);
  Result<std::vector<Session>> actual = algorithm.Phase2(candidate);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  const auto actual_set = AsSet(*actual);
  const auto reference = ReferenceMaximalSessions(
      candidate, graph, options.thresholds.max_page_stay);

  // (1) Every emitted session is a maximal anchored rule-satisfying path.
  for (const auto& session : actual_set) {
    EXPECT_TRUE(reference.contains(session))
        << "not a maximal anchored path: "
        << SessionToString(Session{session}) << "\ncandidate: "
        << SessionToString(candidate) << "\nreference:\n"
        << Describe(reference);
  }
  // (2) Every occurrence of the candidate is covered by some session.
  std::set<PageRequest> covered;
  for (const auto& session : actual_set) {
    covered.insert(session.begin(), session.end());
  }
  for (const PageRequest& request : candidate.requests) {
    EXPECT_TRUE(covered.contains(request))
        << "lost occurrence P" << request.page << " @" << request.timestamp;
  }
  if (expect_equality) {
    EXPECT_EQ(actual_set, reference)
        << "candidate: " << SessionToString(candidate) << "\nexpected:\n"
        << Describe(reference) << "actual:\n"
        << Describe(actual_set);
  }
}

TEST(SmartSraReferenceTest, PaperExampleReachesEquality) {
  WebGraph graph = MakeFigure1Topology();
  ExpectContainedInReference(
      graph,
      MakeSession({0, 2, 1, 5, 4, 3},
                  {Minutes(0), Minutes(6), Minutes(9), Minutes(12),
                   Minutes(14), Minutes(15)}),
      /*expect_equality=*/true);
}

TEST(SmartSraReferenceTest, LayeredConstructionCanDropMaximalPaths) {
  // The D,A,C,X,B example from the file comment: [A,B] is a maximal
  // anchored path but the layered algorithm cannot build it. Documented
  // behaviour of the paper's Figure 2, pinned here so any change to the
  // semantics is noticed.
  WebGraph graph(5);  // 0=D, 1=A, 2=C, 3=X, 4=B
  graph.AddLink(0, 2);  // D -> C
  graph.AddLink(1, 3);  // A -> X
  graph.AddLink(1, 4);  // A -> B
  graph.AddLink(2, 4);  // C -> B
  Session candidate = MakeSession({0, 1, 2, 3, 4}, {0, 10, 20, 30, 40});
  ExpectContainedInReference(graph, candidate);

  SmartSra algorithm(&graph);
  Result<std::vector<Session>> sessions = algorithm.Phase2(candidate);
  ASSERT_TRUE(sessions.ok());
  const auto produced = AsSet(*sessions);
  EXPECT_TRUE(produced.contains(MakeSession({0, 2, 4}, {0, 20, 40}).requests));
  EXPECT_TRUE(produced.contains(MakeSession({1, 3}, {10, 30}).requests));
  EXPECT_FALSE(
      produced.contains(MakeSession({1, 4}, {10, 40}).requests));
  const auto reference = ReferenceMaximalSessions(candidate, graph,
                                                  Minutes(10));
  EXPECT_TRUE(
      reference.contains(MakeSession({1, 4}, {10, 40}).requests));
}

TEST(SmartSraReferenceTest, ExhaustiveTinyTopologiesAndStreams) {
  // Every digraph on 3 pages (2^6 edge subsets) x a fixed set of
  // 4-request streams over those pages with varied timing.
  const std::vector<std::vector<PageId>> page_streams = {
      {0, 1, 2, 0}, {0, 0, 1, 2}, {2, 1, 0, 1}, {0, 1, 0, 1}, {1, 2, 2, 0},
  };
  // Strictly increasing timestamps only: with ties (simultaneous
  // requests) the set of reachable maximal paths depends on log order in
  // a way the paper leaves unspecified, so the reference is not defined
  // there (tie behaviour is covered by the rule-invariant property
  // tests instead).
  const std::vector<std::vector<TimeSeconds>> timings = {
      {0, 60, 120, 180},
      {0, 60, 700, 760},     // gap beyond rho in the middle
      {0, 5, 10, 15},        // rapid-fire requests
      {0, 550, 590, 1150},   // referrers near the rho boundary
  };
  const std::array<std::pair<PageId, PageId>, 6> edges = {
      std::pair<PageId, PageId>{0, 1}, {1, 0}, {0, 2},
      {2, 0}, {1, 2}, {2, 1}};
  for (unsigned mask = 0; mask < 64; ++mask) {
    WebGraph graph(3);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (mask & (1u << e)) graph.AddLink(edges[e].first, edges[e].second);
    }
    for (const auto& pages : page_streams) {
      for (const auto& times : timings) {
        ExpectContainedInReference(graph, MakeSession(pages, times));
      }
    }
  }
}

TEST(SmartSraReferenceTest, RandomSmallCandidates) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t num_pages = 3 + rng.NextBounded(4);  // 3..6 pages
    WebGraph graph(num_pages);
    for (std::size_t from = 0; from < num_pages; ++from) {
      for (std::size_t to = 0; to < num_pages; ++to) {
        if (from != to && rng.Bernoulli(0.35)) {
          graph.AddLink(static_cast<PageId>(from), static_cast<PageId>(to));
        }
      }
    }
    const std::size_t length = 1 + rng.NextBounded(7);  // 1..7 requests
    std::vector<PageId> pages;
    std::vector<TimeSeconds> times;
    TimeSeconds t = 0;
    for (std::size_t i = 0; i < length; ++i) {
      pages.push_back(static_cast<PageId>(rng.NextBounded(num_pages)));
      t += rng.NextInRange(1, 400);  // strictly increasing (see above)
      times.push_back(t);
    }
    ExpectContainedInReference(graph, MakeSession(pages, times));
  }
}

TEST(SmartSraReferenceTest, LongChainWithOneForkReachesEquality) {
  // 100 requests of a chain whose 50th occurrence forks: 49 links to the
  // dead end 50 and to 51, which carries the chain on to 99.
  constexpr PageId kRequests = 100;
  WebGraph graph(kRequests);
  std::vector<PageId> pages;
  std::vector<TimeSeconds> times;
  for (PageId page = 0; page < kRequests; ++page) {
    if (page + 1 < kRequests && page != 50) graph.AddLink(page, page + 1);
    pages.push_back(page);
    times.push_back(10 * static_cast<TimeSeconds>(page));
  }
  graph.AddLink(49, 51);
  const Session candidate = MakeSession(pages, times);
  ExpectContainedInReference(graph, candidate, /*expect_equality=*/true);
  EXPECT_EQ(ReferenceMaximalSessions(candidate, graph, Minutes(10)).size(),
            2u);
}

}  // namespace
}  // namespace wum
