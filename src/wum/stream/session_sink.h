// Consumers of completed sessions: the seam between session
// reconstruction and whatever the caller does with its output.

#ifndef WUM_STREAM_SESSION_SINK_H_
#define WUM_STREAM_SESSION_SINK_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wum/common/result.h"
#include "wum/session/session.h"

namespace wum {

/// Consumer of completed sessions, keyed by the owning user key (the
/// client IP, or the IP+User-Agent composite when the producing stage
/// identifies users that way — see UserKeyFor in clf/user_partitioner.h).
class SessionSink {
 public:
  virtual ~SessionSink() = default;
  virtual Status Accept(const std::string& client_ip, Session session) = 0;

  /// Accept with the key as a view that is valid only for the call:
  /// what an emitter holding its keys in its own storage (a shard's user
  /// table) calls. The default copies the key and calls Accept.
  virtual Status AcceptView(std::string_view user_key, Session session) {
    return Accept(std::string(user_key), std::move(session));
  }

  /// AcceptView for a session held as a span of requests that is valid
  /// only for the call: what an emitter keeping its sessions in its own
  /// buffers (Smart-SRA's phase-2 workspace) calls. The default builds
  /// the Session and calls AcceptView.
  virtual Status AcceptRequests(std::string_view user_key,
                                std::span<const PageRequest> requests) {
    return AcceptView(user_key, Session{{requests.begin(), requests.end()}});
  }
};

/// SessionSink that appends into a vector (tests, examples).
class CollectingSessionSink : public SessionSink {
 public:
  struct Entry {
    std::string client_ip;
    Session session;
  };

  Status Accept(const std::string& client_ip, Session session) override {
    entries_.push_back(Entry{client_ip, std::move(session)});
    return Status::OK();
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// SessionSink invoking a callback (adapters for user code).
class CallbackSessionSink : public SessionSink {
 public:
  using Callback = std::function<Status(const std::string&, Session)>;

  explicit CallbackSessionSink(Callback callback)
      : callback_(std::move(callback)) {}

  Status Accept(const std::string& client_ip, Session session) override {
    return callback_(client_ip, std::move(session));
  }

 private:
  Callback callback_;
};

}  // namespace wum

#endif  // WUM_STREAM_SESSION_SINK_H_
