#include "wum/stream/incremental_sessionizer.h"

#include <algorithm>

#include "wum/ckpt/checkpoint.h"
#include "wum/stream/fault.h"

namespace wum {
namespace {

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

void EncodeOpenSession(std::uint8_t tag, const Session& open,
                       ckpt::Encoder* encoder) {
  encoder->PutU8(tag);
  ckpt::EncodeSession(open, encoder);
}

Status DecodeOpenSession(ckpt::Decoder* decoder, std::uint8_t tag,
                         const char* rule, Session* open) {
  WUM_ASSIGN_OR_RETURN(std::uint8_t found, decoder->GetU8());
  if (found != tag) {
    return Status::ParseError("state tag " + std::to_string(found) +
                              " is not " + rule + " state");
  }
  return ckpt::DecodeSession(decoder, open);
}

Status SmartSraRule::Serialize(const Session& candidate,
                               ckpt::Encoder* encoder) const {
  EncodeOpenSession(kSmartSraStateTag, candidate, encoder);
  return Status::OK();
}

Status SmartSraRule::Restore(ckpt::Decoder* decoder, Session* candidate) const {
  return DecodeOpenSession(decoder, kSmartSraStateTag, "smart-sra", candidate);
}

SessionizeSink::SessionizeSink(SessionSink* session_sink,
                               std::size_t num_pages,
                               SessionizeMetrics metrics)
    : session_sink_(session_sink),
      num_pages_(num_pages),
      metrics_(std::move(metrics)) {}

Status SessionizeSink::PageOutsideTopology(std::uint64_t page) const {
  return Status::InvalidArgument("record references page " +
                                 std::to_string(page) +
                                 " outside the topology");
}

Status SessionizeSink::OutOfOrder(std::string_view user_key) const {
  // The whole key: under ip-ua two agents behind one proxy share an IP.
  std::string key(user_key);
  std::replace(key.begin(), key.end(), '\x1f', '|');
  return Status::InvalidArgument(
      "out-of-order record for user '" + key +
      "'; each user's records must arrive in timestamp order");
}

Status SessionizeSink::Deliver(std::string_view user_key, Session session) {
  sessions_emitted_.fetch_add(1, std::memory_order_relaxed);
  return session_sink_->AcceptView(user_key, std::move(session));
}

Status SessionizeSink::Deliver(std::string_view user_key,
                               std::span<const PageRequest> requests) {
  sessions_emitted_.fetch_add(1, std::memory_order_relaxed);
  return session_sink_->AcceptRequests(user_key, requests);
}

bool SessionizeSink::StopsFlushing(const Status& status) {
  return IsShardFatal(status);
}

Status SessionizeSink::SerializeState(std::vector<std::string>* frames) const {
  ckpt::Encoder header;
  header.PutUvarint(sessions_emitted_.load(std::memory_order_relaxed));
  header.PutUvarint(skipped_non_page_urls_.load(std::memory_order_relaxed));
  header.PutUvarint(records_absorbed_.load(std::memory_order_relaxed));
  header.PutUvarint(watermark_seconds_.load(std::memory_order_relaxed));
  header.PutUvarint(users_.load(std::memory_order_relaxed));
  frames->push_back(header.Release());
  return SerializeUsers(frames);
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
  WUM_RETURN_NOT_OK(RestoreUsers(frames.subspan(1)));
  sessions_emitted_.store(emitted, std::memory_order_relaxed);
  skipped_non_page_urls_.store(skipped, std::memory_order_relaxed);
  records_absorbed_.store(absorbed, std::memory_order_relaxed);
  watermark_seconds_.store(watermark, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace wum
