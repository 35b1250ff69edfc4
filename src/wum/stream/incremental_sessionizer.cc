#include "wum/stream/incremental_sessionizer.h"

#include "wum/ckpt/checkpoint.h"

namespace wum {
namespace {

// State type tag persisted ahead of each sessionizer's open session, so
// a state blob restored into the wrong implementation fails loudly
// (tags 1-3 belong to the incremental time sessionizers).
constexpr std::uint8_t kSmartSraStateTag = 4;

}  // namespace

Status IncrementalUserSessionizer::SerializeState(ckpt::Encoder*) const {
  return Status::Unimplemented(
      "this sessionizer does not support checkpointing (no SerializeState "
      "override)");
}

Status IncrementalUserSessionizer::RestoreState(ckpt::Decoder*) {
  return Status::Unimplemented(
      "this sessionizer does not support checkpointing (no RestoreState "
      "override)");
}

IncrementalSmartSra::IncrementalSmartSra(const WebGraph* graph,
                                         SmartSra::Options options)
    : algorithm_(graph, options) {}

Status IncrementalSmartSra::SerializeState(ckpt::Encoder* encoder) const {
  encoder->PutU8(kSmartSraStateTag);
  ckpt::EncodeSession(candidate_, encoder);
  return Status::OK();
}

Status IncrementalSmartSra::RestoreState(ckpt::Decoder* decoder) {
  WUM_ASSIGN_OR_RETURN(std::uint8_t tag, decoder->GetU8());
  if (tag != kSmartSraStateTag) {
    return Status::ParseError("state tag " + std::to_string(tag) +
                              " is not smart-sra state");
  }
  return ckpt::DecodeSession(decoder, &candidate_);
}

Status IncrementalSmartSra::CloseCandidate(const EmitFn& emit) {
  if (candidate_.empty()) return Status::OK();
  WUM_ASSIGN_OR_RETURN(std::vector<Session> sessions,
                       algorithm_.Phase2(candidate_));
  candidate_ = Session{};
  for (Session& session : sessions) {
    WUM_RETURN_NOT_OK(emit(std::move(session)));
  }
  return Status::OK();
}

Status IncrementalSmartSra::OnRequest(const PageRequest& request,
                                      const EmitFn& emit) {
  const TimeThresholds& t = algorithm_.options().thresholds;
  if (!candidate_.empty()) {
    const bool page_stay_exceeded =
        request.timestamp - candidate_.requests.back().timestamp >
        t.max_page_stay;
    const bool duration_exceeded =
        request.timestamp - candidate_.requests.front().timestamp >
        t.max_session_duration;
    if (page_stay_exceeded || duration_exceeded) {
      WUM_RETURN_NOT_OK(CloseCandidate(emit));
    }
  }
  candidate_.requests.push_back(request);
  return Status::OK();
}

Status IncrementalSmartSra::Flush(const EmitFn& emit) {
  return CloseCandidate(emit);
}

SessionizeSink::SessionizeSink(UserSessionizerFactory factory,
                               SessionSink* session_sink,
                               std::size_t num_pages, UserIdentity identity,
                               SessionizeMetrics metrics)
    : factory_(std::move(factory)),
      session_sink_(session_sink),
      num_pages_(num_pages),
      identity_(identity),
      metrics_(std::move(metrics)) {
  // One closure for the sink's whole lifetime: sessions always belong to
  // the user whose id is current at call time, so no per-record closure
  // (and no per-record heap allocation) is needed.
  emit_fn_ = [this](Session session) {
    sessions_emitted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.sessions_emitted.Increment();
    return session_sink_->Accept(interner_.StringOf(current_user_id_),
                                 std::move(session));
  };
}

Status SessionizeSink::Accept(const LogRecord& record) {
  if (record.timestamp > 0) {
    const std::uint64_t ts = static_cast<std::uint64_t>(record.timestamp);
    if (ts > watermark_seconds_.load(std::memory_order_relaxed)) {
      watermark_seconds_.store(ts, std::memory_order_relaxed);
    }
  }
  Result<std::uint32_t> page = PageFromUrl(record.url);
  if (!page.ok()) {
    skipped_non_page_urls_.fetch_add(1, std::memory_order_relaxed);
    metrics_.skipped_non_page_urls.Increment();
    return Status::OK();
  }
  if (*page >= num_pages_) {
    return Status::InvalidArgument("record references page " +
                                   std::to_string(*page) +
                                   " outside the topology");
  }
  const std::string_view key =
      UserKeyView(record.client_ip, record.user_agent, identity_, &key_buffer_);
  const std::uint32_t user_id = interner_.Intern(key);
  if (user_id == users_.size()) users_.emplace_back();
  UserState& user = users_[user_id];
  if (user.sessionizer == nullptr) user.sessionizer = factory_();
  if (user.has_seen_request && record.timestamp < user.last_timestamp) {
    return Status::InvalidArgument(
        "out-of-order record for " + record.client_ip +
        "; each user's records must arrive in timestamp order");
  }
  user.last_timestamp = record.timestamp;
  user.has_seen_request = true;
  obs::ScopedTimer timer(metrics_.sessionize_latency_us);
  obs::ScopedSpan span(metrics_.tracer, "sessionize", metrics_.trace_shard,
                       records_absorbed_.load(std::memory_order_relaxed));
  current_user_id_ = user_id;
  WUM_RETURN_NOT_OK(user.sessionizer->OnRequest(
      PageRequest{static_cast<PageId>(*page), record.timestamp}, emit_fn_));
  records_absorbed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SessionizeSink::Finish() {
  for (std::uint32_t id = 0; id < users_.size(); ++id) {
    current_user_id_ = id;
    WUM_RETURN_NOT_OK(users_[id].sessionizer->Flush(emit_fn_));
  }
  return Status::OK();
}

Status SessionizeSink::SerializeState(std::vector<std::string>* frames) const {
  ckpt::Encoder header;
  header.PutUvarint(sessions_emitted_.load(std::memory_order_relaxed));
  header.PutUvarint(skipped_non_page_urls_.load(std::memory_order_relaxed));
  header.PutUvarint(records_absorbed_.load(std::memory_order_relaxed));
  header.PutUvarint(watermark_seconds_.load(std::memory_order_relaxed));
  header.PutUvarint(users_.size());
  frames->push_back(header.Release());
  // Id order, not key order: frame position is the interner snapshot
  // (restore re-interns in this order and reproduces identical ids).
  for (std::uint32_t id = 0; id < users_.size(); ++id) {
    const UserState& user = users_[id];
    ckpt::Encoder encoder;
    encoder.PutString(interner_.StringOf(id));
    encoder.PutVarint(user.last_timestamp);
    encoder.PutU8(user.has_seen_request ? 1 : 0);
    WUM_RETURN_NOT_OK(user.sessionizer->SerializeState(&encoder));
    frames->push_back(encoder.Release());
  }
  return Status::OK();
}

Status SessionizeSink::RestoreState(std::span<const std::string> frames) {
  if (frames.empty()) {
    return Status::ParseError("sessionize state missing counters frame");
  }
  ckpt::Decoder header(frames[0]);
  WUM_ASSIGN_OR_RETURN(std::uint64_t emitted, header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(std::uint64_t skipped, header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(std::uint64_t absorbed, header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(std::uint64_t watermark, header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(std::uint64_t num_users, header.GetUvarint());
  WUM_RETURN_NOT_OK(header.ExpectEnd());
  if (num_users != frames.size() - 1) {
    return Status::ParseError(
        "sessionize state declares " + std::to_string(num_users) +
        " users but carries " + std::to_string(frames.size() - 1) +
        " user frames");
  }
  users_.clear();
  interner_.Clear();
  for (const std::string& frame : frames.subspan(1)) {
    ckpt::Decoder decoder(frame);
    WUM_ASSIGN_OR_RETURN(std::string key, decoder.GetString());
    if (key.empty()) return Status::ParseError("empty user key in state");
    if (interner_.Contains(key)) {
      return Status::ParseError("duplicate user key '" + key + "' in state");
    }
    UserState user;
    WUM_ASSIGN_OR_RETURN(user.last_timestamp, decoder.GetVarint());
    WUM_ASSIGN_OR_RETURN(std::uint8_t seen, decoder.GetU8());
    if (seen > 1) return Status::ParseError("invalid has_seen_request flag");
    user.has_seen_request = seen == 1;
    user.sessionizer = factory_();
    WUM_RETURN_NOT_OK(user.sessionizer->RestoreState(&decoder));
    WUM_RETURN_NOT_OK(decoder.ExpectEnd());
    // Frame order is id order: the id handed out here equals the one the
    // serializing sink used, so ids stay stable across a resume.
    const std::uint32_t id = interner_.Intern(key);
    (void)id;
    users_.push_back(std::move(user));
  }
  sessions_emitted_.store(emitted, std::memory_order_relaxed);
  skipped_non_page_urls_.store(skipped, std::memory_order_relaxed);
  records_absorbed_.store(absorbed, std::memory_order_relaxed);
  watermark_seconds_.store(watermark, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace wum
