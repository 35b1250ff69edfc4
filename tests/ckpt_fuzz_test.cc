// Corruption fuzzing for the wum::ckpt codec and checkpoint protocol,
// in the spirit of parser_fuzz_test.cc: feed the decoders truncated,
// bit-flipped and outright random bytes and assert they always return a
// clean Status — never crash, hang or read out of bounds — while intact
// input still round-trips. All randomness is seeded, so every run
// exercises the same byte streams.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wum/ckpt/checkpoint.h"
#include "wum/ckpt/codec.h"
#include "wum/common/random.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/stream/session_sink.h"

namespace wum::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kFuzzMagic = "wumckpt.fuzz";

std::string RandomBytes(Rng* rng, std::size_t max_len) {
  const std::size_t length =
      static_cast<std::size_t>(rng->NextBounded(max_len + 1));
  std::string bytes(length, '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng->NextBounded(256));
  }
  return bytes;
}

/// Flips `flips` random bits anywhere in `data`.
std::string FlipBits(std::string data, Rng* rng, int flips) {
  for (int i = 0; i < flips && !data.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(rng->NextBounded(data.size()));
    const auto bit = static_cast<int>(rng->NextBounded(8));
    data[pos] = static_cast<char>(data[pos] ^ (1 << bit));
  }
  return data;
}

/// A well-formed framed stream with a few variable-size payloads.
std::string ValidStream(Rng* rng, std::vector<std::string>* payloads) {
  std::ostringstream out;
  FrameWriter writer(&out);
  EXPECT_TRUE(writer.WriteHeader(kFuzzMagic, kCheckpointVersion).ok());
  const std::size_t count = 1 + static_cast<std::size_t>(rng->NextBounded(4));
  for (std::size_t i = 0; i < count; ++i) {
    payloads->push_back(RandomBytes(rng, 64));
    EXPECT_TRUE(writer.WriteFrame(payloads->back()).ok());
  }
  return out.str();
}

/// Decodes a framed stream; returns the frames or the first error.
Result<std::vector<std::string>> DecodeStream(const std::string& bytes) {
  std::istringstream in(bytes);
  FrameReader reader(&in);
  WUM_RETURN_NOT_OK(reader.ReadHeader(kFuzzMagic, kCheckpointVersion));
  std::vector<std::string> frames;
  while (true) {
    WUM_ASSIGN_OR_RETURN(std::optional<std::string> frame,
                         reader.ReadFrame());
    if (!frame.has_value()) break;
    frames.push_back(std::move(*frame));
  }
  return frames;
}

TEST(CkptFuzzTest, EveryTruncationFailsCleanlyOrYieldsPrefix) {
  Rng rng(20060201);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::string> payloads;
    const std::string full = ValidStream(&rng, &payloads);
    ASSERT_TRUE(DecodeStream(full).ok());
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      Result<std::vector<std::string>> frames =
          DecodeStream(full.substr(0, cut));
      if (!frames.ok()) {
        EXPECT_TRUE(frames.status().IsParseError())
            << "round " << round << " cut " << cut << ": "
            << frames.status().message();
        continue;
      }
      // A cut at an exact frame boundary parses as a shorter file; the
      // recovered frames must then be a strict prefix of the originals.
      ASSERT_LT(frames->size(), payloads.size());
      for (std::size_t i = 0; i < frames->size(); ++i) {
        EXPECT_EQ((*frames)[i], payloads[i]);
      }
    }
  }
}

TEST(CkptFuzzTest, BitFlipsNeverCrashAndNeverCorruptSilently) {
  Rng rng(20060202);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::string> payloads;
    const std::string full = ValidStream(&rng, &payloads);
    const std::string mutated =
        FlipBits(full, &rng, 1 + static_cast<int>(rng.NextBounded(3)));
    if (mutated == full) continue;
    Result<std::vector<std::string>> frames = DecodeStream(mutated);
    // CRC-framed input either fails loudly or (when the flips landed in
    // a frame-length field that re-frames to a checksummed prefix)
    // yields frames that still match their checksums. It must never
    // silently return the original payload list as if nothing happened.
    if (frames.ok()) {
      EXPECT_NE(*frames, payloads) << "round " << round;
    } else {
      EXPECT_TRUE(frames.status().IsParseError()) << "round " << round;
    }
  }
}

TEST(CkptFuzzTest, RandomGarbageHeadersRejected) {
  Rng rng(20060203);
  for (int round = 0; round < 300; ++round) {
    std::istringstream in(RandomBytes(&rng, 256));
    FrameReader reader(&in);
    Status status = reader.ReadHeader(kFuzzMagic, kCheckpointVersion);
    if (!status.ok()) {
      EXPECT_TRUE(status.IsParseError()) << status.message();
      continue;
    }
    // Astronomically unlikely, but legal: keep reading frames and
    // require a clean Status either way.
    while (true) {
      Result<std::optional<std::string>> frame = reader.ReadFrame();
      if (!frame.ok() || !frame->has_value()) break;
    }
  }
}

TEST(CkptFuzzTest, DecoderPrimitivesSurviveRandomBytes) {
  Rng rng(20060204);
  for (int round = 0; round < 500; ++round) {
    const std::string bytes = RandomBytes(&rng, 128);
    Decoder decoder(bytes);
    // Walk the payload with a random primitive sequence until it is
    // exhausted or a getter reports truncation.
    while (decoder.remaining() > 0) {
      bool ok = true;
      switch (rng.NextBounded(6)) {
        case 0: ok = decoder.GetU8().ok(); break;
        case 1: ok = decoder.GetU32().ok(); break;
        case 2: ok = decoder.GetU64().ok(); break;
        case 3: ok = decoder.GetUvarint().ok(); break;
        case 4: ok = decoder.GetVarint().ok(); break;
        default: ok = decoder.GetString().ok(); break;
      }
      if (!ok) break;
    }
  }
}

TEST(CkptFuzzTest, SchemaDecodersSurviveRandomPayloads) {
  Rng rng(20060205);
  for (int round = 0; round < 500; ++round) {
    const std::string bytes = RandomBytes(&rng, 192);
    {
      Decoder decoder(bytes);
      CheckpointManifest manifest;
      (void)DecodeManifest(&decoder, &manifest);
    }
    {
      Decoder decoder(bytes);
      Session session;
      (void)DecodeSession(&decoder, &session);
    }
    {
      Decoder decoder(bytes);
      DeadLetter letter;
      (void)DecodeDeadLetter(&decoder, &letter);
    }
  }
}

TEST(CkptFuzzTest, SchemaRoundTripsSurviveCorruption) {
  Rng rng(20060206);
  for (int round = 0; round < 200; ++round) {
    CheckpointManifest manifest;
    manifest.epoch = rng.NextBounded(1000);
    manifest.num_shards = static_cast<std::uint32_t>(rng.NextBounded(64));
    manifest.records_seen = rng.NextBounded(1u << 30);
    manifest.heuristic = RandomBytes(&rng, 12);
    manifest.identity = "ip";
    manifest.max_session_duration =
        static_cast<TimeSeconds>(rng.NextBounded(100000));
    manifest.max_page_stay = static_cast<TimeSeconds>(rng.NextBounded(10000));
    manifest.sink_state = RandomBytes(&rng, 24);

    Encoder encoder;
    EncodeManifest(manifest, &encoder);
    // Intact payload round-trips...
    {
      Decoder decoder(encoder.buffer());
      CheckpointManifest restored;
      ASSERT_TRUE(DecodeManifest(&decoder, &restored).ok());
      ASSERT_TRUE(decoder.ExpectEnd().ok());
      EXPECT_EQ(restored.records_seen, manifest.records_seen);
      EXPECT_EQ(restored.heuristic, manifest.heuristic);
    }
    // ...every truncation fails cleanly (possibly via ExpectEnd).
    for (std::size_t cut = 0; cut < encoder.buffer().size(); ++cut) {
      Decoder decoder(std::string_view(encoder.buffer()).substr(0, cut));
      CheckpointManifest restored;
      Status status = DecodeManifest(&decoder, &restored);
      if (status.ok()) status = decoder.ExpectEnd();
      EXPECT_FALSE(status.ok()) << "cut at " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// A corrupted checkpoint directory must fail resume with a clean error,
// not crash or half-restore.

class CorruptResumeTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("ckpt_fuzz_resume_" + std::string(testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  Status TryResume(std::size_t num_shards = 1) {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions()
            .use_duration()
            .set_num_pages(100)
            .set_num_shards(num_shards)
            .resume_from(dir_.string()),
        &sink);
    return engine.ok() ? Status::OK() : engine.status();
  }

  fs::path dir_;
};

TEST_F(CorruptResumeTest, GarbageCurrentPointer) {
  Rng rng(20060207);
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(
        WriteFileAtomic((dir_ / "CURRENT").string(), RandomBytes(&rng, 64))
            .ok());
    Status status = TryResume();
    EXPECT_FALSE(status.ok()) << "round " << round;
  }
}

TEST_F(CorruptResumeTest, CurrentPointsAtMissingEpoch) {
  ASSERT_TRUE(CommitCurrent(dir_.string(), 5).ok());
  Status status = TryResume();
  EXPECT_FALSE(status.ok());
}

TEST_F(CorruptResumeTest, GarbageManifestAndShardFiles) {
  Rng rng(20060208);
  const fs::path epoch = dir_ / EpochDirName(1);
  fs::create_directories(epoch);
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(WriteFileAtomic((epoch / "MANIFEST").string(),
                                RandomBytes(&rng, 128))
                    .ok());
    ASSERT_TRUE(WriteFileAtomic((epoch / "shard-0.state").string(),
                                RandomBytes(&rng, 128))
                    .ok());
    ASSERT_TRUE(CommitCurrent(dir_.string(), 1).ok());
    Status status = TryResume();
    EXPECT_FALSE(status.ok()) << "round " << round;
  }
}

TEST_F(CorruptResumeTest, BitFlippedRealCheckpoint) {
  // Take a real checkpoint, then flip bits in each of its files and
  // require every resume attempt to fail cleanly (or, if the flip
  // landed somewhere truly harmless, succeed) without crashing.
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().use_duration().set_num_pages(100).set_num_shards(2),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  LogRecord record;
  record.client_ip = "10.0.0.1";
  record.timestamp = 1000;
  record.url = "/pages/p1.html";
  ASSERT_TRUE((*engine)->Offer(record).ok());
  ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
  ASSERT_TRUE((*engine)->Finish().ok());

  Rng rng(20060209);
  const fs::path epoch = dir_ / EpochDirName(1);
  for (const char* name :
       {"MANIFEST", "shard-0.state", "shard-1.state", "dead_letters.state"}) {
    const fs::path path = epoch / name;
    ASSERT_TRUE(fs::exists(path)) << name;
    std::ifstream in(path, std::ios::binary);
    std::string original((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    for (int round = 0; round < 30; ++round) {
      ASSERT_TRUE(
          WriteFileAtomic(path.string(), FlipBits(original, &rng, 1)).ok());
      (void)TryResume(2);  // must not crash; error or success both fine
    }
    ASSERT_TRUE(WriteFileAtomic(path.string(), original).ok());
  }
  // With every file restored, resume works again.
  EXPECT_TRUE(TryResume(2).ok());
}

}  // namespace
}  // namespace wum::ckpt
