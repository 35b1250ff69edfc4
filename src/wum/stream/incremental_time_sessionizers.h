// Streaming counterparts of heur1 (session duration), heur2 (page stay)
// and heur3 (navigation-oriented), as rules over one user's open
// session (see incremental_sessionizer.h). Each emits a session the
// moment its cut rule fires; Flush emits the open remainder.

#ifndef WUM_STREAM_INCREMENTAL_TIME_SESSIONIZERS_H_
#define WUM_STREAM_INCREMENTAL_TIME_SESSIONIZERS_H_

#include "wum/common/time.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/topology/web_graph.h"

namespace wum {

/// Emits `*open` (when non-empty) and leaves it empty.
template <typename Emit>
Status EmitOpenSession(Session* open, const Emit& emit) {
  if (open->empty()) return Status::OK();
  Status status = emit(std::move(*open));
  *open = Session{};
  return status;
}

/// Streaming heur1: cuts when the next request would stretch the session
/// past `max_session_duration`.
class DurationRule {
 public:
  using State = Session;

  explicit DurationRule(TimeSeconds max_session_duration = Minutes(30))
      : max_session_duration_(max_session_duration) {}

  template <typename Emit>
  Status OnRequest(Session* open, const PageRequest& request,
                   const Emit& emit) const {
    if (!open->empty() &&
        request.timestamp - open->requests.front().timestamp >
            max_session_duration_) {
      WUM_RETURN_NOT_OK(EmitOpenSession(open, emit));
    }
    open->requests.push_back(request);
    return Status::OK();
  }
  template <typename Emit>
  Status Flush(Session* open, const Emit& emit) const {
    return EmitOpenSession(open, emit);
  }
  Status Serialize(const Session& open, ckpt::Encoder* encoder) const;
  Status Restore(ckpt::Decoder* decoder, Session* open) const;

 private:
  TimeSeconds max_session_duration_;
};

/// Streaming heur2: cuts when the gap to the previous request exceeds
/// `max_page_stay`.
class PageStayRule {
 public:
  using State = Session;

  explicit PageStayRule(TimeSeconds max_page_stay = Minutes(10))
      : max_page_stay_(max_page_stay) {}

  template <typename Emit>
  Status OnRequest(Session* open, const PageRequest& request,
                   const Emit& emit) const {
    if (!open->empty() &&
        request.timestamp - open->requests.back().timestamp > max_page_stay_) {
      WUM_RETURN_NOT_OK(EmitOpenSession(open, emit));
    }
    open->requests.push_back(request);
    return Status::OK();
  }
  template <typename Emit>
  Status Flush(Session* open, const Emit& emit) const {
    return EmitOpenSession(open, emit);
  }
  Status Serialize(const Session& open, ckpt::Encoder* encoder) const;
  Status Restore(ckpt::Decoder* decoder, Session* open) const;

 private:
  TimeSeconds max_page_stay_;
};

/// Streaming heur3: appends linked pages, inserts backward movements on
/// path completion, and cuts when the new page has no in-session
/// referrer.
class NavigationRule {
 public:
  using State = Session;

  /// `graph` must outlive this object.
  explicit NavigationRule(const WebGraph* graph) : graph_(graph) {}

  template <typename Emit>
  Status OnRequest(Session* open, const PageRequest& request,
                   const Emit& emit) const {
    std::vector<PageRequest>& requests = open->requests;
    if (requests.empty() ||
        graph_->HasLink(requests.back().page, request.page)) {
      requests.push_back(request);
      return Status::OK();
    }
    std::size_t referrer_index = requests.size();
    for (std::size_t j = requests.size() - 1; j-- > 0;) {
      if (graph_->HasLink(requests[j].page, request.page)) {
        referrer_index = j;
        break;
      }
    }
    if (referrer_index == requests.size()) {
      WUM_RETURN_NOT_OK(EmitOpenSession(open, emit));
      open->requests.push_back(request);
      return Status::OK();
    }
    for (std::size_t j = requests.size() - 1; j-- > referrer_index;) {
      requests.push_back(PageRequest{requests[j].page, request.timestamp});
    }
    requests.push_back(request);
    return Status::OK();
  }
  template <typename Emit>
  Status Flush(Session* open, const Emit& emit) const {
    return EmitOpenSession(open, emit);
  }
  Status Serialize(const Session& open, ckpt::Encoder* encoder) const;
  Status Restore(ckpt::Decoder* decoder, Session* open) const;

 private:
  const WebGraph* graph_;
};

using IncrementalDurationSessionizer = RuleSessionizer<DurationRule>;
using IncrementalPageStaySessionizer = RuleSessionizer<PageStayRule>;
using IncrementalNavigationSessionizer = RuleSessionizer<NavigationRule>;

}  // namespace wum

#endif  // WUM_STREAM_INCREMENTAL_TIME_SESSIONIZERS_H_
