// A stand-alone per-user sessionizer over one heuristic rule, for tests
// that run a registry heuristic through EngineOptions::use_custom (for
// instance wrapped in FaultInjectingSessionizer). Its checkpoint bytes
// are the rule's, as in a RuleSessionizeSink.

#ifndef WUM_TESTS_RULE_USER_SESSIONIZER_H_
#define WUM_TESTS_RULE_USER_SESSIONIZER_H_

#include <memory>
#include <span>
#include <utility>

#include "wum/stream/incremental_sessionizer.h"

namespace wum {

/// One user's sessionizer: the rule plus that user's state.
template <typename Rule>
class RuleUserSessionizer final : public IncrementalUserSessionizer {
 public:
  explicit RuleUserSessionizer(Rule rule) : rule_(std::move(rule)) {}

  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    return rule_.OnRequest(&state_, request, EmitAdapter{emit});
  }
  Status Flush(const EmitFn& emit) override {
    return rule_.Flush(&state_, EmitAdapter{emit});
  }
  Status SerializeState(ckpt::Encoder* encoder) const override {
    return rule_.Serialize(state_, encoder);
  }
  Status RestoreState(ckpt::Decoder* decoder) override {
    return rule_.Restore(decoder, &state_);
  }

 private:
  /// A rule's emit over an EmitFn: a span of requests becomes a Session.
  struct EmitAdapter {
    const EmitFn& emit;
    Status operator()(Session session) const {
      return emit(std::move(session));
    }
    Status operator()(std::span<const PageRequest> requests) const {
      return emit(Session{{requests.begin(), requests.end()}});
    }
  };

  Rule rule_;
  typename Rule::State state_{};
};

/// A factory whose sessionizers each hold a copy of `rule`.
template <typename Rule>
UserSessionizerFactory RuleUserSessionizers(Rule rule) {
  return [rule = std::move(rule)] {
    return std::make_unique<RuleUserSessionizer<Rule>>(rule);
  };
}

}  // namespace wum

#endif  // WUM_TESTS_RULE_USER_SESSIONIZER_H_
