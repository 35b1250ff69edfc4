#include "wum/session/sessionizer.h"

#include "wum/ckpt/checkpoint.h"

namespace wum {

Status OpenSessionRule::Serialize(const Session& open,
                                  ckpt::Encoder* encoder) const {
  encoder->PutU8(state_tag_);
  ckpt::EncodeSession(open, encoder);
  return Status::OK();
}

Status OpenSessionRule::Restore(ckpt::Decoder* decoder, Session* open) const {
  WUM_ASSIGN_OR_RETURN(std::uint8_t found, decoder->GetU8());
  if (found != state_tag_) {
    return Status::ParseError("state tag " + std::to_string(found) +
                              " is not " + state_name_ + " state");
  }
  return ckpt::DecodeSession(decoder, open);
}

}  // namespace wum
