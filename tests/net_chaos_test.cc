// Deterministic chaos harness for the net layer: ChaosByteSource units
// prove each fault class (trickle, stall, corrupt, injected reset) is
// seeded, replayable, and honors the ByteSource chunk contract; the
// integration matrix drives a live LogServer with ChaosSocket clients
// misbehaving on the wire and asserts the server's invariants hold
// under every mix — lossless fault classes converge byte-for-byte to
// the direct-file-ingest baseline, corruption stays conserved (every
// line is either an accepted record or an attributed dead letter), and
// mid-stream RSTs never cost more than the cut line. The final test
// composes chaos with checkpoint/resume: a crash modeled after a
// checkpoint plus chaotic replay still converges to the uninterrupted
// run's sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "net_test_client.h"
#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/ingest/byte_source.h"
#include "wum/ingest/driver.h"
#include "wum/net/chaos.h"
#include "wum/net/server.h"
#include "wum/net/socket.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum::net {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Workload helpers (same shapes as net_server_test.cc).

std::string ClfLine(const std::string& ip, std::uint32_t page,
                    TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return FormatClfLine(record) + "\n";
}

std::string MakeLog(const std::vector<std::string>& users, int rounds,
                    std::uint32_t num_pages, TimeSeconds base) {
  std::string log;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t u = 0; u < users.size(); ++u) {
      log += ClfLine(users[u],
                     static_cast<std::uint32_t>((u + r) % num_pages),
                     base + r * 600 + static_cast<TimeSeconds>(u));
    }
  }
  return log;
}

using Canonical = std::vector<std::pair<std::string, std::vector<PageId>>>;

Canonical Canonicalize(const std::vector<CollectingSessionSink::Entry>& in) {
  Canonical out;
  for (const auto& entry : in) {
    out.emplace_back(entry.client_ip, entry.session.PageSequence());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Canonical IngestDirect(const WebGraph& graph, const std::string& merged_log,
                       std::size_t shards) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(shards).use_smart_sra(&graph), &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  if (!engine.ok()) return {};
  Result<ingest::IngestDriver> driver =
      ingest::IngestDriver::Create(engine->get(), ingest::IngestOptions{});
  EXPECT_TRUE(driver.ok());
  ClfParser parser;
  std::vector<LogRecordRef> refs;
  EXPECT_TRUE(parser.ParseChunk(merged_log, &refs).ok());
  EXPECT_TRUE(driver->OfferRefs(refs).ok());
  EXPECT_TRUE((*engine)->Finish().ok());
  return Canonicalize(sink.entries());
}

bool WaitForCounter(obs::MetricRegistry* registry, const std::string& counter,
                    std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const obs::MetricsSnapshot snapshot = registry->Snapshot();
    for (const auto& entry : snapshot.counters) {
      if (entry.name == counter && entry.value >= target) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

struct Harness {
  explicit Harness(obs::MetricRegistry* registry) : registry_(registry) {}

  Status Start(EngineOptions engine_options, SessionSink* sink,
               DeadLetterQueue* dead_letters, ServerOptions server_options,
               ClientOffsets offsets = {}) {
    WUM_ASSIGN_OR_RETURN(engine,
                         StreamEngine::Create(std::move(engine_options), sink));
    server_options.metrics = registry_;
    WUM_ASSIGN_OR_RETURN(
        server, LogServer::Start(std::move(server_options), engine.get(),
                                 dead_letters, std::move(offsets)));
    thread = std::thread([this] { serve_status = server->Serve(); });
    return Status::OK();
  }

  Status Quiesce() {
    WUM_ASSIGN_OR_RETURN(const std::string reply,
                         AdminCommand(server->admin_port(), "QUIESCE"));
    if (reply.rfind("OK", 0) != 0) {
      return Status::Internal("quiesce replied: " + reply);
    }
    return Status::OK();
  }

  void Join() {
    if (thread.joinable()) thread.join();
  }

  ~Harness() {
    if (thread.joinable() && server != nullptr) server->RequestStop();
    Join();
  }

  obs::MetricRegistry* registry_;
  std::unique_ptr<StreamEngine> engine;
  std::unique_ptr<LogServer> server;
  std::thread thread;
  Status serve_status;
};

/// Streams `data` through a ChaosSocket. An injected reset ends the
/// stream early and reports `reset = true` (that is the fault working,
/// not an error); any other failure propagates.
struct ChaosClientOutcome {
  ChaosStats stats;
  bool reset = false;
};

Result<ChaosClientOutcome> StreamWithChaos(std::uint16_t port,
                                           const std::string& data,
                                           const std::string& client_id,
                                           const ChaosOptions& options,
                                           std::size_t chunk = 64) {
  WUM_ASSIGN_OR_RETURN(Fd socket, ConnectTcp("127.0.0.1", port));
  ChaosSocket chaos(std::move(socket), options);
  ChaosClientOutcome outcome;
  if (!client_id.empty()) {
    // The handshake rides through the same fault schedule (fragmented
    // or stalled HELLOs must still parse server-side).
    const Status hello = chaos.Send("HELLO " + client_id + "\n");
    if (!hello.ok()) {
      if (chaos.stats().resets > 0 && hello.IsConnectionReset()) {
        outcome.reset = true;
        outcome.stats = chaos.stats();
        return outcome;
      }
      return hello;
    }
    WUM_ASSIGN_OR_RETURN(const std::string reply, ReadLine(chaos.fd()));
    if (reply.rfind("OK", 0) != 0) {
      return Status::FailedPrecondition("handshake refused: " + reply);
    }
  }
  for (std::size_t at = 0; at < data.size(); at += chunk) {
    const Status write =
        chaos.Send(std::string_view(data).substr(at, chunk));
    if (!write.ok()) {
      if (chaos.stats().resets > 0 && write.IsConnectionReset()) {
        outcome.reset = true;
        break;
      }
      return write;
    }
  }
  outcome.stats = chaos.stats();
  return outcome;
}

// ---------------------------------------------------------------------
// ChaosByteSource units.

/// A ByteSource over pre-cut chunks, each (except possibly the last)
/// ending on a line boundary — the contract FileSource and LineBuffer
/// uphold.
class ScriptedSource final : public ingest::ByteSource {
 public:
  explicit ScriptedSource(std::vector<std::string> chunks)
      : chunks_(std::move(chunks)) {}

  Result<std::optional<std::string_view>> Next() override {
    if (at_ >= chunks_.size()) return std::optional<std::string_view>();
    serving_ = chunks_[at_++];
    return std::optional<std::string_view>(serving_);
  }
  bool exhausted() const override { return at_ >= chunks_.size(); }

 private:
  std::vector<std::string> chunks_;
  std::size_t at_ = 0;
  std::string serving_;
};

/// Pumps a chaos source dry, collecting every served chunk. Stalls
/// surface as "no chunk yet"; a bounded iteration count turns a
/// livelocked schedule into a test failure instead of a hang.
std::vector<std::string> PumpDry(ChaosByteSource* source) {
  std::vector<std::string> served;
  for (int spins = 0; spins < 100000 && !source->exhausted(); ++spins) {
    Result<std::optional<std::string_view>> chunk = source->Next();
    EXPECT_TRUE(chunk.ok());
    if (!chunk.ok()) return served;
    if (chunk->has_value()) served.emplace_back(**chunk);
  }
  EXPECT_TRUE(source->exhausted()) << "chaos source never drained";
  return served;
}

std::string Concat(const std::vector<std::string>& chunks) {
  std::string out;
  for (const std::string& chunk : chunks) out += chunk;
  return out;
}

TEST(ChaosByteSourceTest, TrickleServesLineAtATimeLosslessly) {
  const std::string stream = "alpha\nbeta\ngamma\ndelta\nepsilon\n";
  ScriptedSource inner({"alpha\nbeta\n", "gamma\n", "delta\nepsilon\n"});
  ChaosOptions options;
  options.seed = 7;
  options.trickle = true;
  ChaosByteSource chaos(&inner, options);
  const std::vector<std::string> served = PumpDry(&chaos);
  // Maximally fragmented arrival: one line per chunk, nothing lost.
  EXPECT_GT(served.size(), 3u);
  for (const std::string& chunk : served) {
    EXPECT_EQ(std::count(chunk.begin(), chunk.end(), '\n'), 1) << chunk;
    EXPECT_EQ(chunk.back(), '\n');
  }
  EXPECT_EQ(Concat(served), stream);
}

TEST(ChaosByteSourceTest, StallsDelayButLoseNothing) {
  std::vector<std::string> chunks;
  std::string stream;
  for (int i = 0; i < 50; ++i) {
    chunks.push_back("line-" + std::to_string(i) + "\n");
    stream += chunks.back();
  }
  ScriptedSource inner(chunks);
  ChaosOptions options;
  options.seed = 11;
  options.stall_probability = 0.5;
  ChaosByteSource chaos(&inner, options);
  const std::vector<std::string> served = PumpDry(&chaos);
  EXPECT_EQ(Concat(served), stream);
  // With 50+ draws at p=0.5 the seeded schedule certainly stalled; the
  // exact count is pinned by the seed, replayable forever.
  EXPECT_GT(chaos.stats().stalls, 0u);
}

TEST(ChaosByteSourceTest, InjectedResetCutsMidStreamAndExhausts) {
  const std::string stream = "one\ntwo\nthree\nfour\n";
  ScriptedSource inner({"one\ntwo\n", "three\nfour\n"});
  ChaosOptions options;
  options.seed = 3;
  options.reset_probability = 1.0;
  ChaosByteSource chaos(&inner, options);
  const std::vector<std::string> served = PumpDry(&chaos);
  EXPECT_TRUE(chaos.reset_injected());
  EXPECT_TRUE(chaos.exhausted());
  EXPECT_EQ(chaos.stats().resets, 1u);
  // Whatever arrived is a strict prefix of the stream — a reset drops
  // the tail, it never reorders or invents bytes.
  const std::string got = Concat(served);
  EXPECT_LT(got.size(), stream.size());
  EXPECT_EQ(stream.compare(0, got.size(), got), 0);
}

TEST(ChaosByteSourceTest, CorruptionFlipsBytesButNeverFraming) {
  std::string stream;
  std::vector<std::string> chunks;
  for (int i = 0; i < 20; ++i) {
    chunks.push_back("payload-" + std::to_string(i) + "-data\n");
    stream += chunks.back();
  }
  ScriptedSource inner(chunks);
  ChaosOptions options;
  options.seed = 5;
  options.corrupt_probability = 1.0;
  ChaosByteSource chaos(&inner, options);
  const std::string got = Concat(PumpDry(&chaos));
  ASSERT_EQ(got.size(), stream.size());
  std::uint64_t flipped = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    // Newlines are sacred: corruption damages exactly the line it hits
    // and nothing downstream.
    ASSERT_EQ(stream[i] == '\n', got[i] == '\n') << "at byte " << i;
    if (stream[i] != got[i]) ++flipped;
  }
  EXPECT_GT(flipped, 0u);
  EXPECT_EQ(chaos.stats().corruptions, flipped);
}

TEST(ChaosByteSourceTest, SameSeedReplaysTheExactFaultSequence) {
  const std::vector<std::string> chunks = {"aa\nbb\n", "cc\ndd\n", "ee\nff\n"};
  ChaosOptions options;
  options.seed = 42;
  options.stall_probability = 0.3;
  options.corrupt_probability = 0.3;
  options.trickle = true;
  std::vector<std::string> first;
  std::vector<std::string> second;
  ChaosStats stats_first;
  ChaosStats stats_second;
  {
    ScriptedSource inner(chunks);
    ChaosByteSource chaos(&inner, options);
    first = PumpDry(&chaos);
    stats_first = chaos.stats();
  }
  {
    ScriptedSource inner(chunks);
    ChaosByteSource chaos(&inner, options);
    second = PumpDry(&chaos);
    stats_second = chaos.stats();
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(stats_first.stalls, stats_second.stalls);
  EXPECT_EQ(stats_first.corruptions, stats_second.corruptions);
  EXPECT_EQ(stats_first.writes, stats_second.writes);
}

// ---------------------------------------------------------------------
// Live-server chaos matrix.

TEST(NetChaosTest, LosslessFaultMixConvergesToBaselineAcrossSeeds) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  const std::string log_a =
      MakeLog({"10.20.0.1", "10.20.0.2"}, /*rounds=*/12, num_pages,
              1000000000);
  const std::string log_b =
      MakeLog({"10.20.1.1"}, /*rounds=*/12, num_pages, 1000000000);
  const Canonical expected = IngestDirect(graph, log_a + log_b, 2);
  // Trickle, stalls and short writes reorder nothing and drop nothing:
  // whatever the seed, the server must absorb the mangled arrival
  // pattern into exactly the baseline sessions.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    obs::MetricRegistry registry;
    CollectingSessionSink sink;
    DeadLetterQueue dead_letters;
    Harness harness(&registry);
    ASSERT_TRUE(harness
                    .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                               &graph),
                           &sink, &dead_letters, ServerOptions{})
                    .ok());
    ChaosOptions trickle;
    trickle.seed = seed;
    trickle.trickle = true;
    ChaosOptions jitter;
    jitter.seed = seed + 100;
    jitter.stall_probability = 0.3;
    jitter.stall_ms = 1;
    jitter.short_write_probability = 0.5;
    Result<ChaosClientOutcome> client_a = StreamWithChaos(
        harness.server->port(), log_a, "chaos-a-" + std::to_string(seed),
        trickle, /*chunk=*/48);
    ASSERT_TRUE(client_a.ok()) << client_a.status().message();
    EXPECT_FALSE(client_a->reset);
    // The admin plane answers while the data plane is being abused.
    Result<std::string> ping =
        AdminCommand(harness.server->admin_port(), "PING");
    ASSERT_TRUE(ping.ok());
    EXPECT_EQ(*ping, "OK");
    Result<ChaosClientOutcome> client_b = StreamWithChaos(
        harness.server->port(), log_b, "chaos-b-" + std::to_string(seed),
        jitter, /*chunk=*/48);
    ASSERT_TRUE(client_b.ok()) << client_b.status().message();
    EXPECT_FALSE(client_b->reset);
    ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read",
                               log_a.size() + log_b.size()));
    ASSERT_TRUE(harness.Quiesce().ok());
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
    EXPECT_EQ(Canonicalize(sink.entries()), expected) << "seed " << seed;
    EXPECT_EQ(dead_letters.total_offered(), 0u) << "seed " << seed;
  }
}

TEST(NetChaosTest, CorruptingClientStaysConservedAndAttributed) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  const int rounds = 30;
  const std::string log =
      MakeLog({"10.21.0.1"}, rounds, num_pages, 1000000000);
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  ChaosOptions corrupting;
  corrupting.seed = 9;
  corrupting.corrupt_probability = 1.0;
  // Anonymous and one line per Send: every line arrives with exactly
  // one flipped byte and must land as either an accepted (if still
  // parseable) record or a dead letter naming the producer — never
  // vanish, never crash the server.
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < log.size();) {
    const std::size_t end = log.find('\n', at) + 1;
    lines.push_back(log.substr(at, end - at));
    at = end;
  }
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(rounds));
  {
    Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
    ASSERT_TRUE(socket.ok());
    ChaosSocket chaos(std::move(*socket), corrupting);
    for (const std::string& line : lines) {
      ASSERT_TRUE(chaos.Send(line).ok());
    }
    EXPECT_EQ(chaos.stats().corruptions, static_cast<std::uint64_t>(rounds));
  }
  ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read", log.size()));
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  // Conservation: accepted + quarantined == sent.
  std::uint64_t rejected_lines = 0;
  for (const DeadLetter& letter : dead_letters.Drain()) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kParse);
    EXPECT_NE(letter.detail.find("anonymous"), std::string::npos);
    rejected_lines += letter.records_covered;
  }
  EXPECT_EQ(harness.engine->records_seen() + rejected_lines,
            static_cast<std::uint64_t>(rounds));
}

TEST(NetChaosTest, InjectedResetsCostAtMostTheCutLine) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  // A squadron of producers whose schedules RST mid-payload. After each
  // casualty the server must still answer PING, and at the end the only
  // acceptable damage is partial lines (records_covered == 0 letters) —
  // every complete line that arrived before the RST may count, but
  // Linux discards undelivered bytes on reset, so byte-exact totals are
  // not assertable; the invariants are survival and attribution.
  std::uint64_t resets_fired = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string log = MakeLog({"10.22." + std::to_string(i) + ".1"},
                                    /*rounds=*/10, num_pages, 1000000000);
    ChaosOptions resetting;
    resetting.seed = static_cast<std::uint64_t>(100 + i);
    resetting.reset_probability = 0.4;
    Result<ChaosClientOutcome> outcome =
        StreamWithChaos(harness.server->port(), log,
                        "rst-" + std::to_string(i), resetting, /*chunk=*/32);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    resets_fired += outcome->stats.resets;
    Result<std::string> ping =
        AdminCommand(harness.server->admin_port(), "PING");
    ASSERT_TRUE(ping.ok()) << ping.status().message();
    EXPECT_EQ(*ping, "OK");
  }
  // p=0.4 per write over 6 clients x ~20 writes: the seeded schedules
  // certainly fired at least once (deterministic per seed).
  EXPECT_GT(resets_fired, 0u);
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  for (const DeadLetter& letter : dead_letters.Drain()) {
    EXPECT_EQ(letter.records_covered, 0u) << letter.detail;
    // A reset that lands mid-HELLO cuts the handshake before the id
    // registers, so that connection's partial is attributed to
    // "anonymous" — still a named producer slot, never silent.
    const bool attributed =
        letter.detail.find("rst-") != std::string::npos ||
        letter.detail.find("anonymous") != std::string::npos;
    EXPECT_TRUE(attributed) << letter.detail;
    EXPECT_NE(letter.detail.find("partial line carried at close"),
              std::string::npos)
        << letter.detail;
  }
}

// ---------------------------------------------------------------------
// Chaos + checkpoint/resume convergence.

TEST(NetChaosTest, ChaoticReplayAfterCrashConvergesToBaseline) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  const std::string log_a =
      MakeLog({"10.23.0.1", "10.23.0.2"}, /*rounds=*/16, num_pages,
              1000000000);
  const std::string log_b =
      MakeLog({"10.23.1.1"}, /*rounds=*/16, num_pages, 1000000000);
  const Canonical expected = IngestDirect(graph, log_a + log_b, 2);
  const fs::path dir =
      fs::path(testing::TempDir()) / "net_chaos_resume_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto SplitAt = [](const std::string& log, double fraction) {
    const std::size_t boundary =
        log.find('\n', static_cast<std::size_t>(log.size() * fraction));
    return boundary + 1;
  };
  const std::size_t split_a = SplitAt(log_a, 0.5);
  const std::size_t split_b = SplitAt(log_b, 0.3);

  std::vector<CollectingSessionSink::Entry> journal;
  std::mutex journal_mutex;
  CallbackSessionSink sink([&](const std::string& user_key, Session session) {
    std::lock_guard<std::mutex> lock(journal_mutex);
    journal.push_back({user_key, std::move(session)});
    return Status::OK();
  });
  const StreamEngine::SinkStateFn journal_state = [&]() -> Result<std::string> {
    std::lock_guard<std::mutex> lock(journal_mutex);
    return std::to_string(journal.size());
  };

  const auto ChaosFor = [](std::uint64_t seed) {
    ChaosOptions options;
    options.seed = seed;
    options.trickle = seed % 2 == 0;
    options.stall_probability = 0.25;
    options.stall_ms = 1;
    options.short_write_probability = 0.4;
    return options;
  };

  // --- Phase 1: chaotic prefixes, CHECKPOINT, then "crash".
  {
    obs::MetricRegistry registry;
    DeadLetterQueue dead_letters;
    ServerOptions server_options;
    server_options.ingest.checkpoint_dir = dir.string();
    server_options.ingest.checkpoint_every_records = 1000000;
    server_options.journal_state = journal_state;
    Harness harness(&registry);
    ASSERT_TRUE(harness
                    .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                               &graph),
                           &sink, &dead_letters, std::move(server_options))
                    .ok());
    Result<ChaosClientOutcome> a =
        StreamWithChaos(harness.server->port(), log_a.substr(0, split_a),
                        "alice", ChaosFor(21), /*chunk=*/40);
    ASSERT_TRUE(a.ok()) << a.status().message();
    Result<ChaosClientOutcome> b =
        StreamWithChaos(harness.server->port(), log_b.substr(0, split_b),
                        "bob", ChaosFor(22), /*chunk=*/40);
    ASSERT_TRUE(b.ok()) << b.status().message();
    ASSERT_TRUE(
        WaitForCounter(&registry, "net.bytes_read", split_a + split_b));
    Result<std::string> checkpointed =
        AdminCommand(harness.server->admin_port(), "CHECKPOINT");
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().message();
    EXPECT_EQ(checkpointed->rfind("OK records_seen=", 0), 0u) << *checkpointed;
    ASSERT_TRUE(harness.Quiesce().ok());
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
    EXPECT_EQ(dead_letters.total_offered(), 0u);
  }

  // --- Phase 2: resume; both clients replay their whole log from byte
  // zero through fresh chaos schedules; the server discards what the
  // checkpoint covers.
  {
    EngineOptions options;
    options.set_num_shards(2).use_smart_sra(&graph);
    options.resume_from(dir.string()).resume_with_external_replay();
    Result<std::unique_ptr<StreamEngine>> resumed =
        StreamEngine::Create(options, &sink);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    ASSERT_TRUE((*resumed)->resumed());

    std::string committed_state;
    ClientOffsets offsets;
    ASSERT_TRUE(DecodeServeSinkState((*resumed)->resumed_sink_state(),
                                     &committed_state, &offsets)
                    .ok());
    // Chaos never moved a checkpoint off a line boundary: the committed
    // offsets are exactly the complete-line prefixes that were sent.
    std::sort(offsets.begin(), offsets.end());
    ASSERT_EQ(offsets.size(), 2u);
    EXPECT_EQ(offsets[0],
              (std::pair<std::string, std::uint64_t>("alice", split_a)));
    EXPECT_EQ(offsets[1],
              (std::pair<std::string, std::uint64_t>("bob", split_b)));
    std::uint64_t committed = 0;
    for (char digit : committed_state) {
      committed = committed * 10 + static_cast<std::uint64_t>(digit - '0');
    }
    {
      std::lock_guard<std::mutex> lock(journal_mutex);
      ASSERT_LE(committed, journal.size());
      journal.resize(committed);
    }

    obs::MetricRegistry registry;
    DeadLetterQueue dead_letters;
    ServerOptions server_options;
    server_options.ingest.checkpoint_dir = dir.string();
    server_options.ingest.checkpoint_every_records = 1000000;
    server_options.journal_state = journal_state;
    server_options.metrics = &registry;
    Result<std::unique_ptr<LogServer>> server = LogServer::Start(
        std::move(server_options), resumed->get(), &dead_letters, offsets);
    ASSERT_TRUE(server.ok()) << server.status().message();
    Status serve_status;
    std::thread serve_thread([&] { serve_status = (*server)->Serve(); });
    Result<ChaosClientOutcome> a = StreamWithChaos(
        (*server)->port(), log_a, "alice", ChaosFor(31), /*chunk=*/56);
    ASSERT_TRUE(a.ok()) << a.status().message();
    Result<ChaosClientOutcome> b = StreamWithChaos(
        (*server)->port(), log_b, "bob", ChaosFor(32), /*chunk=*/56);
    ASSERT_TRUE(b.ok()) << b.status().message();
    Result<std::string> reply =
        AdminCommand((*server)->admin_port(), "QUIESCE");
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    serve_thread.join();
    ASSERT_TRUE(serve_status.ok()) << serve_status.message();
    EXPECT_EQ(dead_letters.total_offered(), 0u);
  }
  EXPECT_EQ(Canonicalize(journal), expected);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wum::net
