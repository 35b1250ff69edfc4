#include "wum/ingest/byte_source.h"

#include <algorithm>
#include <string>
#include <utility>

namespace wum::ingest {

Result<FileSource> FileSource::Open(const std::string& path,
                                    std::size_t chunk_bytes) {
  WUM_ASSIGN_OR_RETURN(ChunkReader reader, ChunkReader::Open(path, chunk_bytes));
  return FileSource(std::move(reader));
}

Result<std::optional<std::string_view>> FileSource::Next() {
  std::optional<std::string_view> chunk = reader_.Next();
  if (!chunk.has_value()) exhausted_ = true;
  return chunk;
}

void LineBuffer::DropServed() {
  if (served_ == 0) return;
  pending_.erase(0, served_);
  complete_ -= served_;
  served_ = 0;
}

Status LineBuffer::Append(std::string_view bytes) {
  if (closed_) {
    return Status::FailedPrecondition("LineBuffer: Append after Close");
  }
  DropServed();
  const std::size_t old_size = pending_.size();
  const std::size_t old_complete = complete_;
  pending_.append(bytes.data(), bytes.size());
  const std::size_t last_newline = pending_.find_last_of('\n');
  if (last_newline != std::string::npos && last_newline + 1 > complete_) {
    complete_ = last_newline + 1;
  }
  const std::size_t partial = pending_.size() - complete_;
  if (partial > max_line_bytes_) {
    // Roll back the append so consumed_bytes() stays an honest offset of
    // what was actually accepted from the stream.
    pending_.resize(old_size);
    complete_ = old_complete;
    rejected_bytes_ += bytes.size();
    return Status::InvalidArgument(
        "LineBuffer: line exceeds max_line_bytes (" +
        std::to_string(max_line_bytes_) + ") without a newline");
  }
  return Status::OK();
}

Result<std::optional<std::string_view>> LineBuffer::Next() {
  DropServed();
  if (complete_ == 0 && closed_) {
    // End of stream: the unterminated tail goes out whole, exactly like
    // the final line of a file with no trailing newline.
    complete_ = pending_.size();
  }
  if (complete_ == 0) return std::optional<std::string_view>();
  // Served in place: the prefix stays in pending_ until the next Append
  // or Next drops it, so the view needs no copy of its own.
  served_ = complete_;
  consumed_bytes_ += served_;
  return std::optional<std::string_view>(
      std::string_view(pending_.data(), served_));
}

std::size_t LineBuffer::TakeComplete(std::string* out) {
  DropServed();
  const std::size_t taken = complete_;
  out->swap(pending_);
  pending_.assign(*out, taken, std::string::npos);  // the carry stays
  out->resize(taken);
  complete_ = 0;
  consumed_bytes_ += taken;
  return taken;
}

std::size_t LineBuffer::ShedTail() {
  const std::size_t dropped = pending_.size() - complete_;
  pending_.resize(complete_);
  return dropped;
}

}  // namespace wum::ingest
