// heur3 — navigation-oriented session reconstruction with path completion
// (paper §2.2, after Cooley et al.).
//
// A new request P is appended to the current session when the last page
// links to P. Otherwise the heuristic assumes the user pressed "back":
// it locates the nearest earlier in-session page with a hyperlink to P and
// inserts the intervening pages in reverse order (the backward browser
// movements served from the local cache) before appending P. When no
// in-session page links to P at all, P opens a new session.
//
// The paper evaluates heur3 without time bounds (and remarks that
// unbounded use can yield very long sessions); so does this rule.

#ifndef WUM_SESSION_NAVIGATION_HEURISTIC_H_
#define WUM_SESSION_NAVIGATION_HEURISTIC_H_

#include <utility>
#include <vector>

#include "wum/session/sessionizer.h"
#include "wum/topology/web_graph.h"

namespace wum {

/// heur3 as a rule. Inserted backward movements carry the timestamp of
/// the request that triggered the path completion (the log has no stamp
/// for cache hits), keeping output timestamps non-decreasing.
class NavigationRule : public OpenSessionRule {
 public:
  static constexpr const char* kName = "heur3-navigation";

  /// `graph` must outlive this object.
  explicit NavigationRule(const WebGraph* graph)
      : OpenSessionRule(3, "navigation"), graph_(graph) {}

  // Forced inline: otherwise the batch fold calls this once per request
  // and cannot keep the open session in registers.
  template <typename Emit>
  [[gnu::always_inline]] Status OnRequest(Session* open,
                                          const PageRequest& request,
                                          const Emit& emit) const {
    std::vector<PageRequest>& requests = open->requests;
    if (requests.empty() ||
        graph_->HasLink(requests.back().page, request.page)) {
      requests.push_back(request);
      return Status::OK();
    }
    // Path completion: the nearest earlier page with a link to the new
    // page (the last page was checked above).
    std::size_t referrer = requests.size();  // "none"
    for (std::size_t j = requests.size() - 1; j-- > 0;) {
      if (graph_->HasLink(requests[j].page, request.page)) {
        referrer = j;
        break;
      }
    }
    if (referrer == requests.size()) {
      // No in-session referrer: the new page starts a fresh session.
      WUM_RETURN_NOT_OK(emit(std::exchange(*open, Session{})));
    } else {
      // Backward movements from the page before the last one down to
      // the referrer.
      for (std::size_t j = requests.size() - 1; j-- > referrer;) {
        requests.push_back(PageRequest{requests[j].page, request.timestamp});
      }
    }
    requests.push_back(request);
    return Status::OK();
  }
  std::size_t num_pages() const { return graph_->num_pages(); }

 private:
  const WebGraph* graph_;
};

/// `graph` must outlive the sessionizer.
using NavigationSessionizer = FoldSessionizer<NavigationRule>;
extern template class FoldSessionizer<NavigationRule>;

}  // namespace wum

#endif  // WUM_SESSION_NAVIGATION_HEURISTIC_H_
