// Contract tests for the wum::ingest ByteSource surface: LineBuffer's
// partial-line carry round-trips across Next() calls no matter how the
// stream is sliced, the close tail arrives whole like a file's final
// unterminated line, oversize partial lines are rejected with the
// buffer intact, and FileSource chunks reassemble the file exactly —
// so socket ingest and file ingest are interchangeable upstream of
// ClfParser::ParseChunk.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "wum/ingest/byte_source.h"

namespace wum::ingest {
namespace {

namespace fs = std::filesystem;

/// Drains every currently available chunk into one string.
std::string DrainAvailable(LineBuffer* buffer) {
  std::string out;
  while (true) {
    Result<std::optional<std::string_view>> chunk = buffer->Next();
    EXPECT_TRUE(chunk.ok());
    if (!chunk.ok() || !chunk->has_value()) return out;
    out.append(**chunk);
  }
}

TEST(LineBufferTest, ServesCompleteLinesOnly) {
  LineBuffer buffer;
  ASSERT_TRUE(buffer.Append("alpha\nbeta\ngam").ok());
  EXPECT_EQ(DrainAvailable(&buffer), "alpha\nbeta\n");
  // The partial line is carried, not served.
  EXPECT_EQ(buffer.buffered_bytes(), 3u);
  EXPECT_FALSE(buffer.exhausted());
  ASSERT_TRUE(buffer.Append("ma\ndelta\n").ok());
  EXPECT_EQ(DrainAvailable(&buffer), "gamma\ndelta\n");
  EXPECT_EQ(buffer.consumed_bytes(), std::string("alpha\nbeta\ngamma\ndelta\n")
                                         .size());
}

TEST(LineBufferTest, CarryRoundTripsAcrossByteAtATimeAppends) {
  // The nastiest slicing: one byte per Append. Whatever Next() serves,
  // concatenated, must equal the original stream exactly.
  const std::string stream = "a\nbb\r\nccc\n\nfinal-no-newline";
  LineBuffer buffer;
  std::string served;
  for (char byte : stream) {
    ASSERT_TRUE(buffer.Append(std::string_view(&byte, 1)).ok());
    served += DrainAvailable(&buffer);
  }
  buffer.Close();
  served += DrainAvailable(&buffer);
  EXPECT_EQ(served, stream);
  EXPECT_TRUE(buffer.exhausted());
  EXPECT_EQ(buffer.consumed_bytes(), stream.size());
}

TEST(LineBufferTest, CloseServesUnterminatedTailWhole) {
  LineBuffer buffer;
  ASSERT_TRUE(buffer.Append("done\npartial tail").ok());
  EXPECT_EQ(DrainAvailable(&buffer), "done\n");
  buffer.Close();
  Result<std::optional<std::string_view>> tail = buffer.Next();
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE(tail->has_value());
  EXPECT_EQ(**tail, "partial tail");
  EXPECT_TRUE(buffer.exhausted());
}

TEST(LineBufferTest, CloseWithEmptyBufferIsExhaustedImmediately) {
  LineBuffer buffer;
  ASSERT_TRUE(buffer.Append("whole line\n").ok());
  EXPECT_EQ(DrainAvailable(&buffer), "whole line\n");
  buffer.Close();
  Result<std::optional<std::string_view>> chunk = buffer.Next();
  ASSERT_TRUE(chunk.ok());
  EXPECT_FALSE(chunk->has_value());
  EXPECT_TRUE(buffer.exhausted());
}

TEST(LineBufferTest, OversizePartialLineRejectedWithBufferIntact) {
  LineBuffer buffer(/*max_line_bytes=*/16);
  ASSERT_TRUE(buffer.Append("ok\nstart-").ok());
  const std::size_t before = buffer.buffered_bytes();
  const std::uint64_t consumed_before = buffer.consumed_bytes();
  // Completing lines ride along fine; a partial line growing past the
  // bound is refused and the buffer rolls back to its pre-Append state.
  const Status status =
      buffer.Append(std::string(64, 'x'));  // no newline anywhere
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(buffer.buffered_bytes(), before);
  EXPECT_EQ(buffer.consumed_bytes(), consumed_before);
  // The complete line buffered before the abuse is still served.
  EXPECT_EQ(DrainAvailable(&buffer), "ok\n");
}

TEST(LineBufferTest, OversizeRejectionDoesNotCorruptCarry) {
  LineBuffer buffer(/*max_line_bytes=*/8);
  ASSERT_TRUE(buffer.Append("abc").ok());
  // This append carries a newline but still leaves an oversize partial
  // tail; the rollback must restore the carry marker too, or "abc"
  // would later be served as a (wrong) complete line.
  const Status status = buffer.Append("x\n" + std::string(32, 'y'));
  EXPECT_FALSE(status.ok());
  Result<std::optional<std::string_view>> chunk = buffer.Next();
  ASSERT_TRUE(chunk.ok());
  EXPECT_FALSE(chunk->has_value());  // "abc" is still a partial line
  ASSERT_TRUE(buffer.Append("def\n").ok());
  EXPECT_EQ(DrainAvailable(&buffer), "abcdef\n");
}

TEST(LineBufferTest, RejectedBytesAccumulateAcrossOversizeAppends) {
  LineBuffer buffer(/*max_line_bytes=*/8);
  EXPECT_EQ(buffer.rejected_bytes(), 0u);
  ASSERT_TRUE(buffer.Append("fine\n").ok());
  EXPECT_EQ(buffer.rejected_bytes(), 0u);
  // Every byte of a refused Append counts, across repeated abuse — the
  // producer's rate quota already paid for them at read time.
  EXPECT_FALSE(buffer.Append(std::string(20, 'x')).ok());
  EXPECT_EQ(buffer.rejected_bytes(), 20u);
  EXPECT_FALSE(buffer.Append(std::string(13, 'y')).ok());
  EXPECT_EQ(buffer.rejected_bytes(), 33u);
  // Accepted traffic never touches the tally.
  EXPECT_EQ(DrainAvailable(&buffer), "fine\n");
  ASSERT_TRUE(buffer.Append("more\n").ok());
  EXPECT_EQ(buffer.rejected_bytes(), 33u);
}

TEST(LineBufferTest, ShedTailDropsPartialWithoutAdvancingOffset) {
  LineBuffer buffer;
  ASSERT_TRUE(buffer.Append("whole\npart").ok());
  EXPECT_EQ(DrainAvailable(&buffer), "whole\n");
  const std::uint64_t offset = buffer.consumed_bytes();
  // The partial is discarded but the replay offset stays on the line
  // boundary: a resuming client re-sends the shed line whole.
  EXPECT_EQ(buffer.ShedTail(), 4u);
  EXPECT_EQ(buffer.buffered_bytes(), 0u);
  EXPECT_EQ(buffer.consumed_bytes(), offset);
  EXPECT_FALSE(buffer.Next()->has_value());
}

TEST(LineBufferTest, ShedTailKeepsUnservedCompleteLines) {
  LineBuffer buffer;
  ASSERT_TRUE(buffer.Append("a\nb\ncarried-partial").ok());
  // Complete-but-unserved lines survive the shed; only the carry goes.
  EXPECT_EQ(buffer.ShedTail(), std::string("carried-partial").size());
  EXPECT_EQ(DrainAvailable(&buffer), "a\nb\n");
  EXPECT_EQ(buffer.consumed_bytes(), 4u);
  EXPECT_EQ(buffer.ShedTail(), 0u);  // nothing left to shed
}

TEST(LineBufferTest, TakeCompleteMovesTheLinesAndKeepsTheCarry) {
  LineBuffer buffer;
  ASSERT_TRUE(buffer.Append("a 1\nb 2\npart").ok());
  EXPECT_EQ(buffer.complete_bytes(), 8u);
  EXPECT_EQ(buffer.partial_bytes(), 4u);
  std::string taken = "old contents";
  EXPECT_EQ(buffer.TakeComplete(&taken), 8u);
  EXPECT_EQ(taken, "a 1\nb 2\n");
  EXPECT_EQ(buffer.consumed_bytes(), 8u);
  EXPECT_EQ(buffer.complete_bytes(), 0u);
  EXPECT_EQ(buffer.partial_bytes(), 4u);
  // The carry completes in the buffer and is served or taken next, in
  // stream order; `taken` can be handed back for the next chunk.
  ASSERT_TRUE(buffer.Append("ial\nc 3\n").ok());
  EXPECT_EQ(buffer.TakeComplete(&taken), 12u);
  EXPECT_EQ(taken, "partial\nc 3\n");
  EXPECT_EQ(buffer.consumed_bytes(), 20u);
  EXPECT_EQ(buffer.buffered_bytes(), 0u);
  EXPECT_EQ(buffer.TakeComplete(&taken), 0u);
  EXPECT_TRUE(taken.empty());
  EXPECT_FALSE(buffer.Next()->has_value());
}

TEST(LineBufferTest, AppendAfterCloseFails) {
  LineBuffer buffer;
  buffer.Close();
  EXPECT_TRUE(buffer.closed());
  EXPECT_TRUE(buffer.exhausted());
  EXPECT_FALSE(buffer.Append("late\n").ok());
}

TEST(FileSourceTest, ChunksReassembleFileExactly) {
  const fs::path path =
      fs::path(testing::TempDir()) / "ingest_source_test.log";
  std::string content;
  for (int i = 0; i < 500; ++i) {
    content += "line " + std::to_string(i) + " with some padding payload\n";
  }
  content += "final line without newline";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  Result<FileSource> source =
      FileSource::Open(path.string(), /*chunk_bytes=*/256);
  ASSERT_TRUE(source.ok());
  std::string reassembled;
  while (true) {
    Result<std::optional<std::string_view>> chunk = source->Next();
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    // Every chunk except the final one ends on a line boundary.
    if (reassembled.size() + (*chunk)->size() < content.size()) {
      EXPECT_EQ((*chunk)->back(), '\n');
    }
    reassembled.append(**chunk);
  }
  EXPECT_TRUE(source->exhausted());
  EXPECT_EQ(reassembled, content);
  fs::remove(path);
}

TEST(FileSourceTest, MissingFileFailsToOpen) {
  Result<FileSource> source =
      FileSource::Open("/nonexistent/ingest_source_test.log");
  EXPECT_FALSE(source.ok());
}

}  // namespace
}  // namespace wum::ingest
