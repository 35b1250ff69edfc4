// Time-oriented session reconstruction heuristics (paper §2.1):
//
//  * heur1 — total session duration bound delta (default 30 min): a request
//    joins the current session iff t_i - t_0 <= delta; the first request
//    beyond the bound opens a new session.
//  * heur2 — page-stay bound rho (default 10 min): a request joins iff
//    t_i - t_{i-1} <= rho.
//
// Both are cut rules: they partition the request stream, so the union of
// their output sessions is exactly the input stream. Smart-SRA's phase 1
// cuts where either does (SmartSra::ClosesCandidate).

#ifndef WUM_SESSION_TIME_HEURISTICS_H_
#define WUM_SESSION_TIME_HEURISTICS_H_

#include <utility>

#include "wum/common/time.h"
#include "wum/session/sessionizer.h"

namespace wum {

/// heur1's cut: `next` would stretch `open` past `max_session_duration`
/// (never true for an empty session).
inline bool BreaksDuration(const Session& open, const PageRequest& next,
                           TimeSeconds max_session_duration) {
  return !open.empty() && next.timestamp - open.requests.front().timestamp >
                              max_session_duration;
}

/// heur2's cut: the gap from `open`'s last request to `next` exceeds
/// `max_page_stay` (never true for an empty session).
inline bool BreaksPageStay(const Session& open, const PageRequest& next,
                           TimeSeconds max_page_stay) {
  return !open.empty() &&
         next.timestamp - open.requests.back().timestamp > max_page_stay;
}

/// heur1 as a rule: emits the open session when the next request breaks
/// the duration bound. `max_session_duration` must be >= 0.
class DurationRule : public OpenSessionRule {
 public:
  static constexpr const char* kName = "heur1-duration";

  explicit DurationRule(TimeSeconds max_session_duration = Minutes(30))
      : OpenSessionRule(1, "duration"),
        max_session_duration_(max_session_duration) {}

  template <typename Emit>
  Status OnRequest(Session* open, const PageRequest& request,
                   const Emit& emit) const {
    if (BreaksDuration(*open, request, max_session_duration_)) {
      WUM_RETURN_NOT_OK(emit(std::exchange(*open, Session{})));
    }
    open->requests.push_back(request);
    return Status::OK();
  }
  std::size_t num_pages() const { return kInvalidPage; }

 private:
  TimeSeconds max_session_duration_;
};

/// heur2 as a rule: emits the open session when the gap to the next
/// request breaks the page-stay bound. `max_page_stay` must be >= 0.
class PageStayRule : public OpenSessionRule {
 public:
  static constexpr const char* kName = "heur2-pagestay";

  explicit PageStayRule(TimeSeconds max_page_stay = Minutes(10))
      : OpenSessionRule(2, "pagestay"), max_page_stay_(max_page_stay) {}

  template <typename Emit>
  Status OnRequest(Session* open, const PageRequest& request,
                   const Emit& emit) const {
    if (BreaksPageStay(*open, request, max_page_stay_)) {
      WUM_RETURN_NOT_OK(emit(std::exchange(*open, Session{})));
    }
    open->requests.push_back(request);
    return Status::OK();
  }
  std::size_t num_pages() const { return kInvalidPage; }

 private:
  TimeSeconds max_page_stay_;
};

using SessionDurationSessionizer = FoldSessionizer<DurationRule>;
using PageStaySessionizer = FoldSessionizer<PageStayRule>;
extern template class FoldSessionizer<DurationRule>;
extern template class FoldSessionizer<PageStayRule>;

}  // namespace wum

#endif  // WUM_SESSION_TIME_HEURISTICS_H_
