// Sessionizer: common interface of the four reactive session
// reconstruction heuristics evaluated in the paper.
//
// Each registry heuristic is written once, as a rule: a const object
// (thresholds, graph) that advances one user's open state by one
// request and emits each session the moment it closes. A rule provides
//
//   using State = ...;                     // one user's open state
//   Status OnRequest(State*, const PageRequest&, const Emit&) const;
//   Status Flush(State*, const Emit&) const;  // the user's stream ended
//   Status Serialize(const State&, ckpt::Encoder*) const;
//   Status Restore(ckpt::Decoder*, State*) const;
//   std::size_t num_pages() const;         // page ids it accepts
//
// where `emit` takes a closed session as a Session or as a span of
// requests valid for the call. The streaming engine applies the rule to
// every user of a shard as records arrive (RuleSessionizeSink); the
// batch Sessionizer folds it over one user's whole stream
// (FoldSessionizer). Streaming and batch therefore agree per user by
// construction.

#ifndef WUM_SESSION_SESSIONIZER_H_
#define WUM_SESSION_SESSIONIZER_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "wum/common/result.h"
#include "wum/session/session.h"

namespace wum {

namespace ckpt {
class Decoder;
class Encoder;
}  // namespace ckpt

/// A batch session reconstruction heuristic. Implementations are
/// stateless with respect to Reconstruct calls (safe to reuse across
/// users); configuration is fixed at construction.
class Sessionizer {
 public:
  virtual ~Sessionizer() = default;

  /// Short identifier for reports, e.g. "heur4-smart-sra".
  virtual std::string name() const = 0;

  /// Rebuilds sessions from one user's page request stream. Taking a
  /// span lets callers hand over any slice of a larger per-user buffer
  /// (windowed replays, shard-local views) without copying.
  ///
  /// `requests` must be sorted by non-decreasing timestamp (as a server
  /// access log is); passing an unsorted stream returns InvalidArgument.
  virtual Result<std::vector<Session>> Reconstruct(
      std::span<const PageRequest> requests) const = 0;
};

/// What the registry rules share: a user's state is the open Session,
/// which Flush emits, checkpointed as a state tag (1 duration,
/// 2 pagestay, 3 navigation, 4 smart-sra), so state restored into the
/// wrong rule fails loudly, then the session.
class OpenSessionRule {
 public:
  using State = Session;

  template <typename Emit>
  Status Flush(Session* open, const Emit& emit) const {
    if (open->empty()) return Status::OK();
    return emit(std::exchange(*open, Session{}));
  }
  Status Serialize(const Session& open, ckpt::Encoder* encoder) const;
  /// ParseError naming the rule when the tag is not this rule's.
  Status Restore(ckpt::Decoder* decoder, Session* open) const;

 protected:
  /// `state_name` must be a string literal.
  OpenSessionRule(std::uint8_t state_tag, const char* state_name)
      : state_tag_(state_tag), state_name_(state_name) {}

 private:
  std::uint8_t state_tag_;
  const char* state_name_;
};

/// A rule's emit that appends each closed session to `sessions`.
struct SessionCollector {
  std::vector<Session>* sessions;

  Status operator()(Session&& session) const {
    sessions->push_back(std::move(session));
    return Status::OK();
  }
  Status operator()(std::span<const PageRequest> requests) const {
    sessions->push_back(Session{{requests.begin(), requests.end()}});
    return Status::OK();
  }
};

/// Folds `rule` over one user's whole stream: validates it (see
/// Sessionizer::Reconstruct), feeds every request, flushes, and returns
/// the emitted sessions in emission order.
template <typename Rule>
Result<std::vector<Session>> FoldRule(const Rule& rule,
                                      std::span<const PageRequest> requests) {
  WUM_RETURN_NOT_OK(ValidateRequestStream(requests, rule.num_pages()));
  std::vector<Session> sessions;
  const SessionCollector collect{&sessions};
  typename Rule::State state{};
  for (const PageRequest& request : requests) {
    WUM_RETURN_NOT_OK(rule.OnRequest(&state, request, collect));
  }
  WUM_RETURN_NOT_OK(rule.Flush(&state, collect));
  return sessions;
}

/// The batch form of a rule: Reconstruct folds a copy of the rule made
/// for the call, so a rule's scratch (Smart-SRA's phase-2 workspace) is
/// never shared between calls. The constructor arguments are the rule's;
/// name() is Rule::kName. Each registry rule's instantiation is compiled
/// once, in the rule's .cc file (extern template in its header): GCC
/// keeps the open session in registers there, which it does not when a
/// caller instantiates the fold (BM_SessionizeDuration ran ~5% slower).
template <typename Rule>
class FoldSessionizer final : public Sessionizer {
 public:
  template <typename... Args>
    requires std::constructible_from<Rule, Args...>
  explicit FoldSessionizer(Args&&... args)
      : rule_(std::forward<Args>(args)...) {}

  std::string name() const override { return Rule::kName; }

  Result<std::vector<Session>> Reconstruct(
      std::span<const PageRequest> requests) const override;

 private:
  Rule rule_;
};

template <typename Rule>
Result<std::vector<Session>> FoldSessionizer<Rule>::Reconstruct(
    std::span<const PageRequest> requests) const {
  return FoldRule(Rule(rule_), requests);
}

}  // namespace wum

#endif  // WUM_SESSION_SESSIONIZER_H_
