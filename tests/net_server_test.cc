// In-process integration tests for wum::net::LogServer, the TCP front
// end of websra_serve: many concurrent producers feeding one sharded
// StreamEngine must yield exactly the session multiset of ingesting the
// merged log from a file — across shard counts, with disjoint and
// overlapping user populations — and a server killed after a checkpoint
// must, after resume + client replay, converge to the uninterrupted
// run's output. Shedding and malformed lines stay accounted (emitted +
// dead-lettered == accepted) and attributed to their producer. The real
// kill -9 over processes lives in the tools_serve_smoke ctest leg; here
// the crash is modeled in-process by discarding everything emitted
// after the checkpoint barrier.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net_test_client.h"
#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/clf/user_partitioner.h"
#include "wum/ingest/driver.h"
#include "wum/mine/options.h"
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
// Workload + baseline helpers.

/// One CLF line for user `ip` visiting `page` at `timestamp`.
std::string ClfLine(const std::string& ip, std::uint32_t page,
                    TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return FormatClfLine(record) + "\n";
}

/// A log for one producer: `users` addresses, `rounds` requests each,
/// with gaps that cross session thresholds so several sessions close
/// per user.
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

/// The baseline: parse the merged log text and drive it through a fresh
/// engine with the shared IngestDriver — the exact path
/// `websra_sessionize --streaming` takes.
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

// ---------------------------------------------------------------------
// Client-side helpers (what websra_logclient does, in-process).

/// Streams `data` to the data port in `chunk`-byte writes (deliberately
/// unaligned with lines, so the server's partial-line carry is
/// exercised), optionally after a HELLO handshake whose reply lands in
/// `*handshake_reply`.
Status SendData(std::uint16_t port, const std::string& data,
                const std::string& client_id = "", std::size_t chunk = 7,
                std::string* handshake_reply = nullptr) {
  WUM_ASSIGN_OR_RETURN(Fd socket, ConnectTcp("127.0.0.1", port));
  if (!client_id.empty()) {
    WUM_RETURN_NOT_OK(WriteAll(socket, "HELLO " + client_id + "\n"));
    WUM_ASSIGN_OR_RETURN(const std::string reply, ReadLine(socket));
    if (handshake_reply != nullptr) *handshake_reply = reply;
    if (reply.rfind("OK", 0) != 0) {
      return Status::FailedPrecondition("handshake refused: " + reply);
    }
  }
  for (std::size_t at = 0; at < data.size(); at += chunk) {
    WUM_RETURN_NOT_OK(
        WriteAll(socket, std::string_view(data).substr(at, chunk)));
  }
  return Status::OK();  // socket closes here: clean EOF
}

/// Polls the registry until `counter` reaches `target` (every read here
/// stays below LogServer::kScanAheadBytes, so the poll loop offers
/// it in the same step: once net.bytes_read covers a producer's bytes
/// those bytes have been offered to the engine).
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

/// Engine + server + serve thread, torn down by Quiesce() + Join().
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

  void Join() {
    if (thread.joinable()) thread.join();
  }

  ~Harness() {
    // A failed assertion may leave the serve loop running; stop it so
    // the test fails instead of hanging.
    if (thread.joinable() && server != nullptr) server->RequestStop();
    Join();
  }

  obs::MetricRegistry* registry_;
  std::unique_ptr<StreamEngine> engine;
  std::unique_ptr<LogServer> server;
  std::thread thread;
  Status serve_status;
};

// ---------------------------------------------------------------------
// Sink-state codec.

TEST(ServeSinkStateTest, RoundTripsJournalStateAndOffsets) {
  const ClientOffsets offsets = {{"alice", 12345}, {"bob", 0}, {"c/3", 7}};
  const std::string encoded = EncodeServeSinkState("8192", offsets);
  std::string journal_state;
  ClientOffsets decoded;
  ASSERT_TRUE(DecodeServeSinkState(encoded, &journal_state, &decoded).ok());
  EXPECT_EQ(journal_state, "8192");
  EXPECT_EQ(decoded, offsets);
}

TEST(ServeSinkStateTest, EmptyOffsetsRoundTrip) {
  std::string journal_state;
  ClientOffsets decoded;
  ASSERT_TRUE(DecodeServeSinkState(EncodeServeSinkState("", {}),
                                   &journal_state, &decoded)
                  .ok());
  EXPECT_TRUE(journal_state.empty());
  EXPECT_TRUE(decoded.empty());
}

TEST(ServeSinkStateTest, RejectsForeignSinkState) {
  // A websra_sessionize sink_state is a bare decimal journal length —
  // must not decode as a serve sink_state.
  std::string journal_state;
  ClientOffsets decoded;
  EXPECT_FALSE(
      DecodeServeSinkState("123456", &journal_state, &decoded).ok());
  EXPECT_FALSE(DecodeServeSinkState("", &journal_state, &decoded).ok());
}

// ---------------------------------------------------------------------
// Multi-producer equivalence.

TEST(NetServerTest, ConcurrentDisjointProducersMatchSingleFileIngest) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  // Three producers, disjoint user populations: per-user record order is
  // then independent of how the server interleaves connections, so the
  // session multiset must match single-file ingest of the merged log
  // exactly — at every shard count.
  std::vector<std::string> logs;
  std::string merged;
  for (int c = 0; c < 3; ++c) {
    std::vector<std::string> users;
    for (int u = 0; u < 5; ++u) {
      users.push_back("10.0." + std::to_string(c) + "." + std::to_string(u));
    }
    logs.push_back(MakeLog(users, /*rounds=*/20, num_pages,
                           /*base=*/1000000000 + c));
    merged += logs.back();
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Canonical expected = IngestDirect(graph, merged, shards);
    ASSERT_FALSE(expected.empty());

    obs::MetricRegistry registry;
    CollectingSessionSink sink;
    DeadLetterQueue dead_letters;
    Harness harness(&registry);
    ASSERT_TRUE(harness
                    .Start(EngineOptions()
                               .set_num_shards(shards)
                               .use_smart_sra(&graph),
                           &sink, &dead_letters, ServerOptions{})
                    .ok());
    // Fully concurrent producers, chunk sizes unaligned with lines.
    std::vector<std::thread> producers;
    std::vector<Status> results(logs.size());
    const std::size_t chunks[] = {7, 13, 4096};
    for (std::size_t i = 0; i < logs.size(); ++i) {
      producers.emplace_back([&, i] {
        results[i] = SendData(harness.server->port(), logs[i],
                              "producer-" + std::to_string(i), chunks[i]);
      });
    }
    for (std::thread& producer : producers) producer.join();
    for (const Status& result : results) {
      EXPECT_TRUE(result.ok()) << result.message();
    }
    Result<std::string> reply =
        AdminCommand(harness.server->admin_port(), "QUIESCE");
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(reply->rfind("OK", 0), 0u) << *reply;
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
    EXPECT_EQ(Canonicalize(sink.entries()), expected);
    EXPECT_EQ(dead_letters.total_offered(), 0u);
    EXPECT_EQ(harness.server->stats().handshakes, logs.size());
  }
}

TEST(NetServerTest, OverlappingUsersAcrossSequentialProducers) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  // The same users continue across two producers (a log rotated onto a
  // second uploader). Per-user FIFO requires producer A fully absorbed
  // before B starts — the test gates B on the server's byte counter,
  // which the poll loop advances in the step that offers a small read.
  const std::vector<std::string> users = {"10.1.0.1", "10.1.0.2", "10.1.0.3"};
  const std::string log_a =
      MakeLog(users, /*rounds=*/12, num_pages, /*base=*/1000000000);
  const std::string log_b =
      MakeLog(users, /*rounds=*/12, num_pages, /*base=*/1000090000);
  const Canonical expected = IngestDirect(graph, log_a + log_b, 2);
  ASSERT_FALSE(expected.empty());

  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  // Anonymous producers: every byte they send lands in net.bytes_read.
  ASSERT_TRUE(SendData(harness.server->port(), log_a, "", 13).ok());
  ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read", log_a.size()));
  ASSERT_TRUE(SendData(harness.server->port(), log_b, "", 31).ok());
  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "QUIESCE");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(Canonicalize(sink.entries()), expected);
}

// ---------------------------------------------------------------------
// Kill + resume.

TEST(NetServerTest, KillAfterCheckpointThenResumeConvergesToBaseline) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  const fs::path dir = fs::path(testing::TempDir()) / "net_server_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string log_alice = MakeLog(
      {"10.2.0.1", "10.2.0.2"}, /*rounds=*/30, num_pages, 1000000000);
  const std::string log_bob = MakeLog(
      {"10.2.1.1", "10.2.1.2"}, /*rounds=*/30, num_pages, 1000000007);
  const Canonical expected = IngestDirect(graph, log_alice + log_bob, 2);
  ASSERT_FALSE(expected.empty());

  // Split each producer's log at a line boundary: phase 1 sends the
  // prefix, so after CHECKPOINT the manifest's per-client offset must be
  // exactly the prefix length.
  const auto SplitAt = [](const std::string& log, double fraction) {
    const std::size_t boundary =
        log.find('\n', static_cast<std::size_t>(log.size() * fraction));
    return boundary + 1;  // include the newline
  };
  const std::size_t alice_split = SplitAt(log_alice, 0.6);
  const std::size_t bob_split = SplitAt(log_bob, 0.4);

  // The durable "journal": sessions emitted in order, truncated to the
  // checkpoint-committed count on crash (exactly what the real journal
  // file does via its committed length in sink_state).
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

  // --- Phase 1: serve the prefixes, checkpoint, then "crash".
  {
    obs::MetricRegistry registry;
    DeadLetterQueue dead_letters;
    ServerOptions server_options;
    server_options.ingest.checkpoint_dir = dir.string();
    server_options.ingest.checkpoint_every_records = 1000000;  // admin-driven
    server_options.journal_state = journal_state;
    Harness harness(&registry);
    ASSERT_TRUE(harness
                    .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                               &graph),
                           &sink, &dead_letters, std::move(server_options))
                    .ok());
    std::string reply_alice;
    std::string reply_bob;
    ASSERT_TRUE(SendData(harness.server->port(),
                         log_alice.substr(0, alice_split), "alice", 17,
                         &reply_alice)
                    .ok());
    ASSERT_TRUE(SendData(harness.server->port(), log_bob.substr(0, bob_split),
                         "bob", 23, &reply_bob)
                    .ok());
    EXPECT_EQ(reply_alice, "OK 0");
    EXPECT_EQ(reply_bob, "OK 0");
    ASSERT_TRUE(
        WaitForCounter(&registry, "net.bytes_read", alice_split + bob_split));
    Result<std::string> checkpointed =
        AdminCommand(harness.server->admin_port(), "CHECKPOINT");
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().message();
    EXPECT_EQ(checkpointed->rfind("OK records_seen=", 0), 0u) << *checkpointed;
    // "kill -9": quiesce the process shell, then discard every session
    // emitted after the checkpoint barrier — a crashed process's
    // un-checkpointed output never reached durable storage.
    Result<std::string> reply =
        AdminCommand(harness.server->admin_port(), "QUIESCE");
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  }

  // --- Phase 2: resume, replay both clients from byte zero, finish.
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
    // The checkpointed offsets are exactly the complete-line prefixes.
    ASSERT_EQ(offsets.size(), 2u);
    std::sort(offsets.begin(), offsets.end());
    EXPECT_EQ(offsets[0], (std::pair<std::string, std::uint64_t>(
                              "alice", alice_split)));
    EXPECT_EQ(offsets[1],
              (std::pair<std::string, std::uint64_t>("bob", bob_split)));
    // Truncate the "journal" to its committed length.
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
    std::thread serve_thread(
        [&] { serve_status = (*server)->Serve(); });
    // Both clients re-send their whole log from byte zero; the server
    // discards what the checkpoint covers (the handshake reply tells
    // each client how much that is).
    std::string reply_alice;
    std::string reply_bob;
    ASSERT_TRUE(SendData((*server)->port(), log_alice, "alice", 13,
                         &reply_alice)
                    .ok());
    ASSERT_TRUE(
        SendData((*server)->port(), log_bob, "bob", 19, &reply_bob).ok());
    EXPECT_EQ(reply_alice, "OK " + std::to_string(alice_split));
    EXPECT_EQ(reply_bob, "OK " + std::to_string(bob_split));
    Result<std::string> reply = AdminCommand((*server)->admin_port(),
                                             "QUIESCE");
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    serve_thread.join();
    ASSERT_TRUE(serve_status.ok()) << serve_status.message();
    EXPECT_EQ(dead_letters.total_offered(), 0u);
  }
  EXPECT_EQ(Canonicalize(journal), expected);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Shedding + malformed-line accounting.

/// Emits every request as a one-page session, slowly — so a flooding
/// producer overruns the shard queue and kShed actually sheds.
class SlowEmitSessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }
};

TEST(NetServerTest, ShedRecordsAreDeadLetteredAgainstTheirProducer) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  const std::uint32_t num_pages = 8;
  std::string flood;
  const int kRecords = 2000;
  for (int i = 0; i < kRecords; ++i) {
    flood += ClfLine("10.3.0.1",
                     static_cast<std::uint32_t>(i) % num_pages,
                     1000000000 + i);
  }
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(
      harness
          .Start(EngineOptions()
                     .set_num_shards(1)
                     .set_queue_capacity(2)
                     .set_offer_policy(OfferPolicy::kShed)
                     .set_dead_letters(&dead_letters)
                     .set_num_pages(num_pages)
                     .use_custom(
                         [] { return std::make_unique<SlowEmitSessionizer>(); }),
                 &sink, &dead_letters, ServerOptions{})
          .ok());
  ASSERT_TRUE(
      SendData(harness.server->port(), flood, "flood", 8192).ok());
  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "QUIESCE");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();

  // Conservation: every accepted record was either emitted or shed, and
  // every shed record is dead-lettered against the producer that sent
  // it — nothing vanishes silently.
  const std::uint64_t shed = harness.engine->TotalStats().records_shed;
  std::uint64_t emitted = 0;
  for (const auto& entry : sink.entries()) {
    emitted += entry.session.requests.size();
  }
  EXPECT_EQ(harness.engine->records_seen(),
            static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(emitted + shed, harness.engine->records_seen());
  EXPECT_EQ(harness.server->stats().records_shed, shed);
  EXPECT_EQ(dead_letters.records_covered(), shed);
  for (const DeadLetter& letter : dead_letters.Drain()) {
    ASSERT_EQ(letter.stage, DeadLetter::Stage::kRecord);
    EXPECT_EQ(letter.detail, "flood");
  }
}

TEST(NetServerTest, MalformedLinesQuarantinedWithProducerTag) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const std::string data = ClfLine("10.4.0.1", 0, 1000000000) +
                           ClfLine("10.4.0.1", 1, 1000000030) +
                           "this is not a log line\n" +
                           ClfLine("10.4.0.1", 2, 1000000060);
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  ASSERT_TRUE(SendData(harness.server->port(), data, "tagged").ok());
  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "QUIESCE");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  ASSERT_EQ(dead_letters.total_offered(), 1u);
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 1u);
  const DeadLetter& letter = letters.front();
  EXPECT_EQ(letter.stage, DeadLetter::Stage::kParse);
  // The detail names the producer and ITS line number (the handshake
  // line is not counted).
  EXPECT_NE(letter.detail.find("tagged line 3"), std::string::npos)
      << letter.detail;
  // The valid lines still made it through: the session multiset equals
  // ingesting just those lines from a file.
  const std::string valid = ClfLine("10.4.0.1", 0, 1000000000) +
                            ClfLine("10.4.0.1", 1, 1000000030) +
                            ClfLine("10.4.0.1", 2, 1000000060);
  EXPECT_EQ(Canonicalize(sink.entries()), IngestDirect(graph, valid, 1));
}

// ---------------------------------------------------------------------
// Protocol edges.

TEST(NetServerTest, DuplicateLiveClientIdRefused) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  Result<Fd> first = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(WriteAll(*first, "HELLO dup\n").ok());
  Result<std::string> first_reply = ReadLine(*first);
  ASSERT_TRUE(first_reply.ok());
  EXPECT_EQ(*first_reply, "OK 0");

  Result<Fd> second = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(WriteAll(*second, "HELLO dup\n").ok());
  Result<std::string> second_reply = ReadLine(*second);
  ASSERT_TRUE(second_reply.ok());
  EXPECT_EQ(second_reply->rfind("ERR duplicate", 0), 0u) << *second_reply;

  first->reset();
  second->reset();
  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "QUIESCE");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

TEST(NetServerTest, AdminPingStatsAndUnknownCommands) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  Result<std::string> ping = AdminCommand(harness.server->admin_port(), "PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(*ping, "OK");
  Result<std::string> stats =
      AdminCommand(harness.server->admin_port(), "STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->front(), '{') << *stats;
  Result<std::string> unknown =
      AdminCommand(harness.server->admin_port(), "BOGUS");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->rfind("ERR unknown", 0), 0u) << *unknown;
  // CHECKPOINT without a checkpoint directory is a precise error, not a
  // crash.
  Result<std::string> checkpoint =
      AdminCommand(harness.server->admin_port(), "CHECKPOINT");
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->rfind("ERR", 0), 0u) << *checkpoint;
  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "QUIESCE");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

TEST(NetServerTest, AdminPatternsRequiresMining) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  Result<std::string> patterns =
      AdminCommand(harness.server->admin_port(), "PATTERNS");
  ASSERT_TRUE(patterns.ok());
  EXPECT_EQ(*patterns, "ERR mining disabled (start with --mine-topk)");
  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "QUIESCE");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

TEST(NetServerTest, AdminPatternsReportsMinedPaths) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  mine::MinerOptions mining;
  ASSERT_TRUE(harness
                  .Start(EngineOptions()
                             .set_num_shards(1)
                             .use_smart_sra(&graph)
                             .set_metrics(&registry)
                             .set_mining(mining),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  // Four users walk P1 -> P13 -> P34 -> P23 twice, 5000 s apart: the
  // second walk's arrival closes the first session, so four sessions
  // are mined while the server still runs.
  constexpr PageId kWalk[] = {0, 1, 4, 3};
  std::string log;
  for (int round = 0; round < 2; ++round) {
    for (int u = 0; u < 4; ++u) {
      for (int i = 0; i < 4; ++i) {
        log += ClfLine("10.0.1." + std::to_string(u), kWalk[i],
                       1000000000 + round * 5000 + u * 10 + i * 30);
      }
    }
  }
  ASSERT_TRUE(SendData(harness.server->port(), log).ok());
  ASSERT_TRUE(WaitForCounter(&registry, "mining.sessions", 4));

  Result<std::string> patterns =
      AdminCommand(harness.server->admin_port(), "PATTERNS");
  ASSERT_TRUE(patterns.ok());
  EXPECT_EQ(patterns->front(), '{') << *patterns;
  EXPECT_NE(patterns->find("\"patterns\":["), std::string::npos) << *patterns;
  EXPECT_NE(patterns->find("\"path\":[0,1],\"count\":4,\"error\":0"),
            std::string::npos)
      << *patterns;

  // Operands: k and length select the answer; the reply echoes both.
  Result<std::string> pairs =
      AdminCommand(harness.server->admin_port(), "PATTERNS 2 2");
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->rfind("{\"k\":2,\"length\":2,", 0), 0u) << *pairs;
  EXPECT_EQ(pairs->find("\"path\":[0,1,4]"), std::string::npos) << *pairs;

  // Malformed operands, and a length the miner does not mine (the
  // default range is 2..3), are a usage error naming the mined range,
  // not a dropped connection or an empty pattern list.
  for (const char* bad : {"PATTERNS x", "PATTERNS 1 2 3", "PATTERNS -1",
                          "PATTERNS 5 7", "PATTERNS 5 1"}) {
    Result<std::string> reply =
        AdminCommand(harness.server->admin_port(), bad);
    ASSERT_TRUE(reply.ok()) << bad;
    EXPECT_EQ(*reply, "ERR usage: PATTERNS [k] [len] (len 0 or 2..3)") << bad;
  }
  // STATS now takes one optional operand (JSON); anything else is a
  // usage error, not a dropped connection.
  Result<std::string> stats_with_args =
      AdminCommand(harness.server->admin_port(), "STATS extra");
  ASSERT_TRUE(stats_with_args.ok());
  EXPECT_EQ(*stats_with_args, "ERR usage: STATS [JSON]") << *stats_with_args;

  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "QUIESCE");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

// ---------------------------------------------------------------------
// Lifecycle.

/// Fails every request with Internal, which stops the engine.
class FailingSessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest&, const EmitFn&) override {
    return Status::Internal("injected sessionizer fault");
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }
};

TEST(NetServerTest, ListenersCloseWhenServeFails) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(1).set_num_pages(6).use_custom(
          [] { return std::make_unique<FailingSessionizer>(); }),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Result<std::unique_ptr<LogServer>> server =
      LogServer::Start(ServerOptions(), engine->get(), nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::atomic<bool> done{false};
  Status serve_status;
  std::thread serve_thread([&] {
    serve_status = (*server)->Serve();
    done = true;
  });
  // Page views until the engine's error ends Serve().
  const auto deadline = std::chrono::steady_clock::now() + kReadLineDeadline;
  for (TimeSeconds t = 0; !done && std::chrono::steady_clock::now() < deadline;
       ++t) {
    (void)SendData((*server)->port(), ClfLine("10.0.0.1", 0, t));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!done) (*server)->RequestStop();
  serve_thread.join();
  EXPECT_TRUE(serve_status.IsInternal()) << serve_status.ToString();

  // Nobody accepts on the admin port any more: the connect is refused
  // (or the read ends) at once instead of waiting out the deadline.
  Result<std::string> reply = AdminCommand((*server)->admin_port(), "QUIESCE");
  ASSERT_FALSE(reply.ok()) << *reply;
  EXPECT_FALSE(reply.status().IsDeadlineExceeded())
      << reply.status().ToString();
}

}  // namespace
}  // namespace wum::net
