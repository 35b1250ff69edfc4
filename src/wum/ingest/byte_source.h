// The unified ingest surface: every way bytes enter the system — a
// memory-mapped file handed to the CLI, a TCP socket feeding the
// websra_serve daemon — is a ByteSource producing line-aligned chunks
// for ClfParser::ParseChunk. File and socket ingest are first-class
// peers of the same IngestDriver (see wum/ingest/driver.h) instead of
// two hand-rolled loops.
//
// Chunk contract (shared with ChunkReader): every chunk ends on a '\n'
// boundary except possibly the final chunk of the stream, whose trailing
// unterminated line arrives whole. Feeding every chunk of a source to
// ParseChunk therefore reproduces the stream's lines exactly — a
// partial line buffered mid-stream is *carried*, never served early and
// never rejected as malformed.

#ifndef WUM_INGEST_BYTE_SOURCE_H_
#define WUM_INGEST_BYTE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "wum/clf/chunk_reader.h"
#include "wum/common/result.h"

namespace wum::ingest {

/// Pull interface for line-aligned byte chunks.
///
/// Next() returns the next chunk, or nullopt when no chunk is available
/// *right now*. A file source always has a chunk until end of file, so
/// nullopt means the stream is over; a socket-fed source returns nullopt
/// whenever the buffered bytes hold no complete line yet — the stream is
/// only over when exhausted() is also true. The returned view stays
/// valid until the next call to Next() on the same source.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Next line-aligned chunk, or nullopt when none is available.
  virtual Result<std::optional<std::string_view>> Next() = 0;

  /// True once the stream has ended AND every buffered byte has been
  /// served: Next() will never produce another chunk.
  virtual bool exhausted() const = 0;
};

/// File-backed ByteSource: a thin adapter over ChunkReader (mmap when
/// the platform allows it, buffered reads otherwise). Next() == nullopt
/// means end of file.
class FileSource final : public ByteSource {
 public:
  static Result<FileSource> Open(
      const std::string& path,
      std::size_t chunk_bytes = ChunkReader::kDefaultChunkBytes);

  FileSource(FileSource&&) noexcept = default;
  FileSource& operator=(FileSource&&) noexcept = default;

  Result<std::optional<std::string_view>> Next() override;
  bool exhausted() const override { return exhausted_; }

 private:
  explicit FileSource(ChunkReader reader) : reader_(std::move(reader)) {}

  ChunkReader reader_;
  bool exhausted_ = false;
};

/// Push-fed ByteSource for byte streams that arrive in arbitrary pieces
/// (TCP reads, pipes): Append() raw bytes as they arrive, Close() at end
/// of stream, pull line-aligned chunks with Next().
///
/// The partial-line carry round-trips across Next() calls: bytes after
/// the last '\n' stay buffered — Next() returns nullopt rather than
/// serving (and having the parser reject) half a line — until a later
/// Append completes the line or Close() marks the stream over, at which
/// point the tail is served whole as the final (unterminated) chunk,
/// exactly like the last line of a file without a trailing newline.
class LineBuffer final : public ByteSource {
 public:
  /// Bound on one line's length — a producer that streams forever
  /// without a newline is buffering abuse, not data. Generous: real CLF
  /// lines are a few hundred bytes.
  static constexpr std::size_t kDefaultMaxLineBytes = 1u << 20;

  explicit LineBuffer(std::size_t max_line_bytes = kDefaultMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Feeds raw stream bytes. Fails (leaving the buffer intact for
  /// diagnostics) when the partial line under construction exceeds
  /// max_line_bytes; the caller should drop the producer.
  Status Append(std::string_view bytes);

  /// Marks end of stream: no more Append calls; the buffered tail (if
  /// any) becomes the final chunk of the next Next() call.
  void Close() { closed_ = true; }

  bool closed() const { return closed_; }

  /// The chunk is a view into the buffer itself, not a copy: it stays
  /// valid until the next Next() or Append() call, whichever comes
  /// first (the served bytes are dropped then).
  Result<std::optional<std::string_view>> Next() override;
  bool exhausted() const override {
    return closed_ && pending_.size() == served_;
  }

  /// Moves the complete lines (not yet served) out into `*out` and
  /// counts them as consumed; the partial-line carry stays. `*out`'s
  /// old contents are discarded and its buffer becomes this one's, so a
  /// caller that hands the same few strings back and forth allocates
  /// nothing once they have grown. Returns the bytes taken.
  std::size_t TakeComplete(std::string* out);

  /// Bytes served through Next() or taken by TakeComplete() so far —
  /// after a pump this is the byte offset up to which the stream has
  /// been consumed (the per-connection replay offset websra_serve
  /// checkpoints).
  std::uint64_t consumed_bytes() const { return consumed_bytes_; }

  /// Bytes appended but not yet served (complete lines awaiting Next()
  /// plus the partial-line carry).
  std::size_t buffered_bytes() const { return pending_.size() - served_; }

  /// Complete lines awaiting Next(), in bytes.
  std::size_t complete_bytes() const { return complete_ - served_; }

  /// The partial-line carry: bytes after the last '\n'.
  std::size_t partial_bytes() const { return pending_.size() - complete_; }

  /// Cumulative bytes refused by Append (oversize-line rejections).
  /// They were read off the wire and so still count against a
  /// producer's ingest quota even though they never became a chunk.
  std::uint64_t rejected_bytes() const { return rejected_bytes_; }

  /// Discards the partial-line carry (bytes after the last '\n') and
  /// returns how many were dropped. The dropped bytes do NOT count as
  /// consumed: a replay offset must always land on a line boundary, so
  /// the offset stays at the last complete line and a resuming client
  /// re-sends the shed line whole. Callers must drop the producer after
  /// shedding — its next bytes would be the unframeable remainder of
  /// the line whose head was just discarded.
  std::size_t ShedTail();

 private:
  /// Erases the bytes the last Next() served (the previous view's
  /// backing store).
  void DropServed();

  std::size_t max_line_bytes_;
  // [0, served_): the chunk the last Next() returned, dropped lazily;
  // [served_, complete_): complete lines, ending on '\n';
  // [complete_, size): the partial-line carry.
  std::string pending_;
  std::size_t served_ = 0;
  std::size_t complete_ = 0;
  std::uint64_t consumed_bytes_ = 0;
  std::uint64_t rejected_bytes_ = 0;
  bool closed_ = false;
};

}  // namespace wum::ingest

#endif  // WUM_INGEST_BYTE_SOURCE_H_
