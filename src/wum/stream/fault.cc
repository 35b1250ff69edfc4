#include "wum/stream/fault.h"

#include <algorithm>
#include <utility>

namespace wum {

bool IsShardFatal(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:
    case StatusCode::kIoError:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

FaultSchedule FaultSchedule::Never() {
  return FaultSchedule(Kind::kNever);
}

FaultSchedule FaultSchedule::Always() {
  return FaultSchedule(Kind::kAlways);
}

FaultSchedule FaultSchedule::AtIndices(std::vector<std::uint64_t> indices) {
  FaultSchedule schedule(Kind::kIndices);
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  schedule.indices_ = std::move(indices);
  return schedule;
}

FaultSchedule FaultSchedule::FirstN(std::uint64_t n) {
  FaultSchedule schedule(Kind::kFirstN);
  schedule.n_ = n;
  return schedule;
}

FaultSchedule FaultSchedule::EveryNth(std::uint64_t n) {
  FaultSchedule schedule(Kind::kEveryNth);
  schedule.n_ = n;
  return schedule;
}

FaultSchedule FaultSchedule::Seeded(std::uint64_t seed, double probability) {
  FaultSchedule schedule(Kind::kSeeded);
  schedule.probability_ = probability;
  schedule.rng_.emplace(seed);
  return schedule;
}

bool FaultSchedule::Next() {
  const std::uint64_t index = seen_++;
  bool fire = false;
  switch (kind_) {
    case Kind::kNever:
      break;
    case Kind::kAlways:
      fire = true;
      break;
    case Kind::kIndices:
      fire = std::binary_search(indices_.begin(), indices_.end(), index);
      break;
    case Kind::kFirstN:
      fire = index < n_;
      break;
    case Kind::kEveryNth:
      fire = n_ != 0 && (index + 1) % n_ == 0;
      break;
    case Kind::kSeeded:
      fire = rng_->Bernoulli(probability_);
      break;
  }
  if (fire) ++fired_;
  return fire;
}

UserSessionizerFactory FaultInjectingSessionizer::Wrap(
    UserSessionizerFactory inner, PageId poison_page, Mode mode) {
  return [inner = std::move(inner), poison_page, mode]() {
    return std::make_unique<FaultInjectingSessionizer>(inner(), poison_page,
                                                       mode);
  };
}

Status FaultInjectingSessionizer::OnRequest(const PageRequest& request,
                                            const EmitFn& emit) {
  if (request.page != poison_page_) return inner_->OnRequest(request, emit);
  switch (mode_) {
    case Mode::kReject:
      return Status::InvalidArgument("injected record fault");
    case Mode::kShardFatal:
      return Status::Internal("injected shard fault");
  }
  return Status::Internal("unreachable fault mode");
}

FlakySink::FlakySink(SessionSink* wrapped, FaultSchedule schedule,
                     Status failure)
    : wrapped_(wrapped),
      schedule_(std::move(schedule)),
      failure_(std::move(failure)) {}

Status FlakySink::Accept(const std::string& user_key, Session session) {
  bool fail;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fail = schedule_.Next();
  }
  if (fail) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return failure_;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  return wrapped_->Accept(user_key, std::move(session));
}

}  // namespace wum
