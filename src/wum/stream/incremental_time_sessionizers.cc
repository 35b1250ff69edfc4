#include "wum/stream/incremental_time_sessionizers.h"

namespace wum {
namespace {

// State tags, distinct across the rules (smart-sra claims 4 in
// incremental_sessionizer.cc).
constexpr std::uint8_t kDurationStateTag = 1;
constexpr std::uint8_t kPageStayStateTag = 2;
constexpr std::uint8_t kNavigationStateTag = 3;

}  // namespace

Status DurationRule::Serialize(const Session& open,
                               ckpt::Encoder* encoder) const {
  EncodeOpenSession(kDurationStateTag, open, encoder);
  return Status::OK();
}

Status DurationRule::Restore(ckpt::Decoder* decoder, Session* open) const {
  return DecodeOpenSession(decoder, kDurationStateTag, "duration", open);
}

Status PageStayRule::Serialize(const Session& open,
                               ckpt::Encoder* encoder) const {
  EncodeOpenSession(kPageStayStateTag, open, encoder);
  return Status::OK();
}

Status PageStayRule::Restore(ckpt::Decoder* decoder, Session* open) const {
  return DecodeOpenSession(decoder, kPageStayStateTag, "pagestay", open);
}

Status NavigationRule::Serialize(const Session& open,
                                 ckpt::Encoder* encoder) const {
  EncodeOpenSession(kNavigationStateTag, open, encoder);
  return Status::OK();
}

Status NavigationRule::Restore(ckpt::Decoder* decoder, Session* open) const {
  return DecodeOpenSession(decoder, kNavigationStateTag, "navigation", open);
}

}  // namespace wum
