// The oracle for the cut heuristics (heur1, heur2 and Smart-SRA's
// phase 1): the sessions partition the input in order, none breaks the
// bound, and every cut is forced, i.e. the next session's first request
// appended to the session before it would break the bound. For a bound
// that a session keeps breaking once it breaks it (both time bounds do)
// these fix the output uniquely, so a rule that cuts too early or too
// late fails.

#ifndef WUM_TESTS_CUT_ORACLE_H_
#define WUM_TESTS_CUT_ORACLE_H_

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "wum/session/session.h"

namespace wum {

/// `breaks(session)` says whether `session` breaks the bound.
template <typename Breaks>
void ExpectForcedCutPartition(const std::vector<Session>& sessions,
                              std::span<const PageRequest> requests,
                              const Breaks& breaks) {
  std::vector<PageRequest> reassembled;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    const Session& session = sessions[k];
    ASSERT_FALSE(session.empty()) << "session " << k;
    EXPECT_FALSE(breaks(session)) << "bound broken by "
                                  << SessionToString(session);
    if (k > 0) {
      Session joined = sessions[k - 1];
      joined.requests.push_back(session.requests.front());
      EXPECT_TRUE(breaks(joined))
          << "unforced cut before session " << k << ": "
          << SessionToString(joined) << " keeps the bound";
    }
    reassembled.insert(reassembled.end(), session.requests.begin(),
                       session.requests.end());
  }
  EXPECT_EQ(reassembled,
            std::vector<PageRequest>(requests.begin(), requests.end()));
}

}  // namespace wum

#endif  // WUM_TESTS_CUT_ORACLE_H_
