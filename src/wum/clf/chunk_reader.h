// Line-aligned chunked file input for the zero-copy ingest path.
//
// A ChunkReader memory-maps an access log when the platform allows it
// and serves large line-aligned std::string_view chunks straight out of
// the mapping — no copy between the kernel page cache and the parser.
// When mmap is unavailable (non-POSIX builds, pipes, /proc files of
// unknown size) it degrades to buffered reads into an internal carry
// buffer with the same chunk contract.

#ifndef WUM_CLF_CHUNK_READER_H_
#define WUM_CLF_CHUNK_READER_H_

#include <cstddef>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "wum/common/result.h"

namespace wum {

class ChunkReader {
 public:
  /// Default chunk size: big enough to amortize per-chunk costs, small
  /// enough that the buffered fallback's carry copy stays cache-friendly.
  static constexpr std::size_t kDefaultChunkBytes = 1u << 20;

  /// Opens `path` for chunked reading. Tries mmap first; falls back to
  /// buffered istream reads. Fails only if the file cannot be opened.
  static Result<ChunkReader> Open(const std::string& path,
                                  std::size_t chunk_bytes = kDefaultChunkBytes);

  ChunkReader(ChunkReader&& other) noexcept;
  ChunkReader& operator=(ChunkReader&& other) noexcept;
  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;
  ~ChunkReader();

  /// Returns the next chunk, or nullopt at end of file. Chunks end on a
  /// '\n' boundary except possibly the last (a trailing unterminated
  /// line arrives whole), so feeding every chunk to
  /// ClfParser::ParseChunk reproduces the file's lines exactly. A line
  /// longer than the configured chunk size is still returned whole.
  ///
  /// Lifetime: in buffered mode the view is invalidated by the next
  /// Next() call; in mmap mode it lives until the reader is destroyed.
  /// Callers consume a chunk's LogRecordRefs before asking for the next
  /// chunk (wum::ingest::ParseFile), which is safe in both modes.
  std::optional<std::string_view> Next();

 private:
  ChunkReader() = default;

  std::optional<std::string_view> NextMapped();
  std::optional<std::string_view> NextBuffered();

  std::size_t chunk_bytes_ = kDefaultChunkBytes;

  // mmap mode.
  const char* mapping_ = nullptr;
  std::size_t mapping_size_ = 0;
  std::size_t mapping_pos_ = 0;

  // Buffered fallback.
  std::ifstream file_;
  std::string buffer_;
  std::string carry_;
  bool eof_ = false;
};

}  // namespace wum

#endif  // WUM_CLF_CHUNK_READER_H_
