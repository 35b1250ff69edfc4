#include "wum/stream/fault.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "wum/obs/log.h"

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

std::chrono::microseconds RetryBackoff(const RetryOptions& options,
                                       int retry_index) {
  double delay = static_cast<double>(options.initial_backoff.count());
  for (int i = 1; i < retry_index; ++i) delay *= options.multiplier;
  const double cap = static_cast<double>(options.max_backoff.count());
  if (delay > cap) delay = cap;
  return std::chrono::microseconds(static_cast<std::int64_t>(delay));
}

RetryingSink::RetryingSink(SessionSink* sink, RetryOptions options,
                           obs::Counter retries_mirror, obs::Tracer tracer,
                           std::uint64_t trace_shard)
    : sink_(sink),
      options_(std::move(options)),
      retries_mirror_(retries_mirror),
      tracer_(tracer),
      trace_shard_(trace_shard) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

Status RetryingSink::Accept(const std::string& user_key, Session session) {
  Status status;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    // First attempts are the happy path and are covered by the "emit"
    // span; only re-attempts (backoff wait + delivery) get their own.
    obs::ScopedSpan span(attempt > 1 ? tracer_ : obs::Tracer(), "retry",
                         trace_shard_, static_cast<std::uint64_t>(attempt));
    if (attempt > 1) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      retries_mirror_.Increment();
      const std::chrono::microseconds delay =
          RetryBackoff(options_, attempt - 1);
      obs::LogWarn("sink.retry")("shard", trace_shard_)("attempt", attempt)(
          "delay_us", static_cast<std::uint64_t>(delay.count()))(
          "error", status.ToString());
      if (options_.sleep != nullptr) {
        options_.sleep(delay);
      } else {
        std::this_thread::sleep_for(delay);
      }
    }
    // The final attempt hands the session over; earlier ones keep a copy
    // to retry with.
    if (attempt == options_.max_attempts) {
      status = sink_->Accept(user_key, std::move(session));
    } else {
      status = sink_->Accept(user_key, session);
    }
    if (status.ok()) return status;
  }
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  obs::LogError("sink.exhausted")("shard", trace_shard_)(
      "attempts", options_.max_attempts)("error", status.ToString());
  return status;
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
