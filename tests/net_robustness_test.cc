// Hostile-network robustness tests for wum::net::LogServer plus unit
// tests for the policy primitives behind it (TimerWheel, TokenBucket).
// The integration tests drive a real server over loopback sockets and
// assert the hardening behaviors one by one: lifecycle deadlines expire
// silent / dribbling peers with a protocol ERR and a dead-lettered
// partial, admission control answers BUSY at accept, per-client quotas
// degrade exactly one producer (pause under kBlock, shed-and-close
// under kShed), resetting peers never take down the serve loop, and
// the admin socket shrugs off oversized, split, unknown and concurrent
// commands. The centerpiece regression: a producer stalled over its
// buffer quota under OfferPolicy::kBlock must not block anyone else.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "net_test_client.h"
#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/ingest/driver.h"
#include "wum/net/quota.h"
#include "wum/net/server.h"
#include "wum/net/socket.h"
#include "wum/net/timer_wheel.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum::net {
namespace {

// ---------------------------------------------------------------------
// TimerWheel.

TEST(TimerWheelTest, FiresAtDeadlineExactlyOnce) {
  TimerWheel wheel(/*tick_ms=*/16, /*slots=*/8);
  wheel.Schedule(1, 100);
  EXPECT_TRUE(wheel.Advance(50).empty());
  const std::vector<std::uint64_t> fired = wheel.Advance(120);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_TRUE(wheel.Advance(500).empty());
}

TEST(TimerWheelTest, MultipleKeysInOneWindowAllFire) {
  TimerWheel wheel(/*tick_ms=*/16, /*slots=*/8);
  wheel.Schedule(1, 40);
  wheel.Schedule(2, 45);
  wheel.Schedule(3, 300);
  std::vector<std::uint64_t> fired = wheel.Advance(60);
  std::sort(fired.begin(), fired.end());
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(wheel.size(), 1u);
}

TEST(TimerWheelTest, RescheduleMovesTheDeadline) {
  TimerWheel wheel(/*tick_ms=*/16, /*slots=*/8);
  wheel.Schedule(7, 100);
  wheel.Schedule(7, 500);  // overwrite: the 100ms copy goes stale
  EXPECT_TRUE(wheel.Advance(200).empty());
  const std::vector<std::uint64_t> fired = wheel.Advance(520);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7u);
}

TEST(TimerWheelTest, CancelForgets) {
  TimerWheel wheel;
  wheel.Schedule(3, 100);
  wheel.Cancel(3);
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_TRUE(wheel.Advance(10000).empty());
  wheel.Cancel(42);  // cancelling the unscheduled is a no-op
}

TEST(TimerWheelTest, PastDeadlineFiresOnNextAdvance) {
  // A deadline already in the past must not hide behind the scan cursor
  // for a full rotation.
  TimerWheel wheel(/*tick_ms=*/16, /*slots=*/8);
  EXPECT_TRUE(wheel.Advance(10000).empty());
  wheel.Schedule(9, 50);  // long past
  const std::vector<std::uint64_t> fired = wheel.Advance(10000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 9u);
}

TEST(TimerWheelTest, DeadlineBeyondOneRotationSurvives) {
  // Circumference is 4 * 16 = 64ms; a 500ms deadline wraps many times
  // and must survive every intermediate scan.
  TimerWheel wheel(/*tick_ms=*/16, /*slots=*/4);
  wheel.Schedule(5, 500);
  for (std::uint64_t now = 30; now < 500; now += 30) {
    EXPECT_TRUE(wheel.Advance(now).empty()) << "at " << now;
  }
  const std::vector<std::uint64_t> fired = wheel.Advance(520);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 5u);
}

TEST(TimerWheelTest, NextDeadlineIsALowerBound) {
  TimerWheel wheel(/*tick_ms=*/16, /*slots=*/8);
  EXPECT_FALSE(wheel.NextDeadline().has_value());
  wheel.Schedule(1, 100);
  wheel.Schedule(2, 60);
  ASSERT_TRUE(wheel.NextDeadline().has_value());
  EXPECT_LE(*wheel.NextDeadline(), 60u);
  ASSERT_EQ(wheel.Advance(70).size(), 1u);
  ASSERT_TRUE(wheel.NextDeadline().has_value());
  EXPECT_LE(*wheel.NextDeadline(), 100u);
}

// ---------------------------------------------------------------------
// TokenBucket.

TEST(TokenBucketTest, DefaultIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_GT(bucket.Available(0), std::uint64_t{1} << 60);
  bucket.Consume(1u << 30, 0);
  EXPECT_GT(bucket.Available(0), std::uint64_t{1} << 60);
  EXPECT_EQ(bucket.WhenAvailable(1u << 30, 123), 123u);
}

TEST(TokenBucketTest, StartsFullThenRefillsAtRate) {
  TokenBucket bucket(/*bytes_per_sec=*/1000, /*burst_bytes=*/500,
                     /*now_ms=*/0);
  EXPECT_FALSE(bucket.unlimited());
  EXPECT_EQ(bucket.Available(0), 500u);
  bucket.Consume(200, 0);
  EXPECT_EQ(bucket.Available(0), 300u);
  // 100ms at 1000 B/s refills 100 bytes.
  EXPECT_EQ(bucket.Available(100), 400u);
  // The burst ceiling caps the refill.
  EXPECT_EQ(bucket.Available(5000), 500u);
}

TEST(TokenBucketTest, SubBytePerMillisecondRatesAccrue) {
  // 1 byte/sec: integer milli-token math must not truncate to zero.
  TokenBucket bucket(/*bytes_per_sec=*/1, /*burst_bytes=*/1, /*now_ms=*/0);
  EXPECT_EQ(bucket.Available(0), 1u);
  bucket.Consume(1, 0);
  EXPECT_EQ(bucket.Available(500), 0u);
  EXPECT_EQ(bucket.Available(1000), 1u);
}

TEST(TokenBucketTest, WhenAvailablePredictsTheRefill) {
  TokenBucket bucket(/*bytes_per_sec=*/1, /*burst_bytes=*/1, /*now_ms=*/0);
  bucket.Consume(1, 0);
  EXPECT_EQ(bucket.WhenAvailable(1, 0), 1000u);
  // Already available: "now".
  TokenBucket full(/*bytes_per_sec=*/1000, /*burst_bytes=*/100, /*now_ms=*/0);
  EXPECT_EQ(full.WhenAvailable(50, 7), 7u);
}

TEST(TokenBucketTest, ConsumeBeyondBalanceClampsAtZero) {
  TokenBucket bucket(/*bytes_per_sec=*/1000, /*burst_bytes=*/100,
                     /*now_ms=*/0);
  bucket.Consume(100000, 0);  // overage already left the wire; clamp
  EXPECT_EQ(bucket.Available(0), 0u);
  EXPECT_EQ(bucket.Available(50), 50u);
}

TEST(TokenBucketTest, WhenAvailableClampsWantToBurstCapacity) {
  TokenBucket bucket(/*bytes_per_sec=*/1000, /*burst_bytes=*/100,
                     /*now_ms=*/0);
  bucket.Consume(100, 0);
  // Asking for more than the bucket can ever hold waits for a full
  // bucket, not forever.
  EXPECT_EQ(bucket.WhenAvailable(1u << 20, 0), 100u);
}

// ---------------------------------------------------------------------
// Integration helpers (mirrors net_server_test.cc idiom).

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

/// Connects, optionally handshakes, and streams `data` in `chunk`-byte
/// writes, closing cleanly at the end.
Status SendData(std::uint16_t port, const std::string& data,
                const std::string& client_id = "", std::size_t chunk = 7) {
  WUM_ASSIGN_OR_RETURN(Fd socket, ConnectTcp("127.0.0.1", port));
  if (!client_id.empty()) {
    WUM_RETURN_NOT_OK(WriteAll(socket, "HELLO " + client_id + "\n"));
    WUM_ASSIGN_OR_RETURN(const std::string reply, ReadLine(socket));
    if (reply.rfind("OK", 0) != 0) {
      return Status::FailedPrecondition("handshake refused: " + reply);
    }
  }
  for (std::size_t at = 0; at < data.size(); at += chunk) {
    WUM_RETURN_NOT_OK(
        WriteAll(socket, std::string_view(data).substr(at, chunk)));
  }
  return Status::OK();
}

std::uint64_t CounterValue(obs::MetricRegistry* registry,
                           const std::string& name) {
  const obs::MetricsSnapshot snapshot = registry->Snapshot();
  for (const auto& entry : snapshot.counters) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

bool WaitForCounter(obs::MetricRegistry* registry, const std::string& counter,
                    std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (CounterValue(registry, counter) >= target) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Engine + server + serve thread, torn down by QUIESCE + Join().
struct Harness {
  explicit Harness(obs::MetricRegistry* registry) : registry_(registry) {}

  Status Start(EngineOptions engine_options, SessionSink* sink,
               DeadLetterQueue* dead_letters, ServerOptions server_options) {
    WUM_ASSIGN_OR_RETURN(engine,
                         StreamEngine::Create(std::move(engine_options), sink));
    server_options.metrics = registry_;
    WUM_ASSIGN_OR_RETURN(server,
                         LogServer::Start(std::move(server_options),
                                          engine.get(), dead_letters));
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

// ---------------------------------------------------------------------
// Lifecycle deadlines.

TEST(NetRobustnessTest, IdleConnectionExpiredWithProtocolErr) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.deadlines.idle_timeout_ms = 120;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(WriteAll(*socket, "HELLO idler\n").ok());
  Result<std::string> hello = ReadLine(*socket);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(*hello, "OK 0");
  // Go silent; the server must reap us with a reasoned farewell.
  Result<std::string> err = ReadLine(*socket);
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(*err, "ERR idle timeout");
  EXPECT_FALSE(ReadLine(*socket).ok());  // then the door shuts
  ASSERT_TRUE(WaitForCounter(&registry, "net.conn.expired", 1));
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(harness.server->stats().connections_expired, 1u);
  EXPECT_EQ(CounterValue(&registry, "net.close.idle_timeout"), 1u);
  EXPECT_EQ(dead_letters.total_offered(), 0u);  // nothing was in flight
}

TEST(NetRobustnessTest, HandshakeTimeoutReapsSilentConnection) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.deadlines.handshake_timeout_ms = 120;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  // Connect and never send a byte: a handshake that never happens.
  Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(socket.ok());
  Result<std::string> err = ReadLine(*socket);
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(*err, "ERR handshake timeout");
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  EXPECT_EQ(harness.server->stats().connections_expired, 1u);
}

TEST(NetRobustnessTest, ReadTimeoutDeadLettersTheCarriedPartial) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.deadlines.read_timeout_ms = 150;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(WriteAll(*socket, "HELLO dribbler\n").ok());
  ASSERT_TRUE(ReadLine(*socket).ok());
  // One complete line (salvageable) plus a partial that never finishes.
  const std::string line = ClfLine("10.6.0.1", 0, 1000000000);
  ASSERT_TRUE(WriteAll(*socket, line + "10.6.0.1 - - [unfinished").ok());
  Result<std::string> err = ReadLine(*socket);
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(*err, "ERR read timeout");
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  // The complete line was salvaged into a session...
  EXPECT_EQ(sink.entries().size(), 1u);
  // ...and the partial is quarantined with attribution, not accounted as
  // an accepted record.
  ASSERT_EQ(dead_letters.total_offered(), 1u);
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].stage, DeadLetter::Stage::kParse);
  EXPECT_TRUE(letters[0].reason.IsDeadlineExceeded())
      << letters[0].reason.ToString();
  EXPECT_EQ(letters[0].records_covered, 0u);
  EXPECT_NE(letters[0].detail.find("dribbler"), std::string::npos);
  EXPECT_NE(letters[0].detail.find("partial line carried at close"),
            std::string::npos);
}

TEST(NetRobustnessTest, IdleAdminConnectionExpiredToo) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.deadlines.idle_timeout_ms = 120;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->admin_port());
  ASSERT_TRUE(socket.ok());
  Result<std::string> err = ReadLine(*socket);
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(*err, "ERR idle timeout");
  // A parked admin socket cannot camp a connection slot forever, and
  // fresh admin commands still work afterwards.
  Result<std::string> ping = AdminCommand(harness.server->admin_port(), "PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(*ping, "OK");
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
}

// ---------------------------------------------------------------------
// Admission control.

TEST(NetRobustnessTest, MaxConnectionsAnswersBusyAndAdminStaysResponsive) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.max_connections = 1;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  Result<Fd> first = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(WriteAll(*first, "HELLO occupant\n").ok());
  ASSERT_TRUE(ReadLine(*first).ok());  // fully admitted

  Result<Fd> second = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(second.ok());
  Result<std::string> busy = ReadLine(*second);
  ASSERT_TRUE(busy.ok()) << busy.status().message();
  EXPECT_EQ(*busy, "BUSY max_connections");
  EXPECT_FALSE(ReadLine(*second).ok());  // refused connections close

  // Admission control is for data producers only: admin keeps working
  // at full occupancy.
  Result<std::string> stats =
      AdminCommand(harness.server->admin_port(), "STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->front(), '{') << *stats;

  // Freeing the slot readmits new producers.
  first->reset();
  ASSERT_TRUE(WaitForCounter(&registry, "net.connections_closed", 2));
  const std::string line = ClfLine("10.7.1.1", 0, 1000000000);
  ASSERT_TRUE(SendData(harness.server->port(), line, "latecomer").ok());
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  EXPECT_EQ(harness.server->stats().connections_refused, 1u);
  EXPECT_EQ(CounterValue(&registry, "net.conn.refused"), 1u);
  EXPECT_EQ(sink.entries().size(), 1u);
}

TEST(NetRobustnessTest, IngestBudgetRefusesNewProducersWhileExhausted) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.ingest_budget_bytes = 64;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions()
                             .set_num_shards(1)
                             .set_offer_policy(OfferPolicy::kBlock)
                             .use_smart_sra(&graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  // One producer parks 100 buffered bytes (a partial line), exhausting
  // the global budget.
  Result<Fd> hog = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(hog.ok());
  ASSERT_TRUE(WriteAll(*hog, "HELLO hog\n").ok());
  ASSERT_TRUE(ReadLine(*hog).ok());
  ASSERT_TRUE(WriteAll(*hog, std::string(100, 'x')).ok());
  ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read", 100));

  Result<Fd> refused = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(refused.ok());
  Result<std::string> busy = ReadLine(*refused);
  ASSERT_TRUE(busy.ok()) << busy.status().message();
  EXPECT_EQ(*busy, "BUSY ingest_budget");
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  EXPECT_EQ(harness.server->stats().connections_refused, 1u);
}

// ---------------------------------------------------------------------
// Per-client quotas.

TEST(NetRobustnessTest, BufferQuotaBreachUnderShedClosesWithAttribution) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.client_quota.max_buffered_bytes = 64;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions()
                             .set_num_shards(1)
                             .set_offer_policy(OfferPolicy::kShed)
                             .set_dead_letters(&dead_letters)
                             .use_smart_sra(&graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(WriteAll(*socket, "HELLO noisy\n").ok());
  ASSERT_TRUE(ReadLine(*socket).ok());
  // A complete line (absorbed) followed by a 100-byte partial that
  // breaches the 64-byte buffer ceiling.
  const std::string line = ClfLine("10.7.0.1", 0, 1000000000);
  ASSERT_TRUE(WriteAll(*socket, line + std::string(100, 'x')).ok());
  Result<std::string> err = ReadLine(*socket);
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(*err, "ERR buffer quota exceeded");
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  // The complete line made it through; the shed partial is attributed;
  // the replay offset stayed on the line boundary so a resuming client
  // re-sends the interrupted line whole.
  EXPECT_EQ(sink.entries().size(), 1u);
  ASSERT_EQ(dead_letters.total_offered(), 1u);
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  EXPECT_EQ(letters[0].records_covered, 0u);
  EXPECT_NE(letters[0].detail.find("noisy"), std::string::npos);
  const ClientOffsets& offsets = harness.server->client_offsets();
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_EQ(offsets[0].first, "noisy");
  EXPECT_EQ(offsets[0].second, line.size());
  EXPECT_EQ(CounterValue(&registry, "net.close.buffer_quota_exceeded"), 1u);
}

TEST(NetRobustnessTest, StalledProducerUnderBlockDoesNotBlockOthers) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  // The ceiling sits above any carried partial a well-behaved producer
  // can leave (one CLF line ~90 bytes) and below the blocker's
  // deliberately long partial — only the blocker can breach it.
  options.client_quota.max_buffered_bytes = 256;
  // Freeze the clock: the paused producer's 50ms re-check never comes
  // due, so the pause provably holds for the whole test.
  options.clock_ms = [] { return std::uint64_t{1000}; };
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions()
                             .set_num_shards(1)
                             .set_offer_policy(OfferPolicy::kBlock)
                             .use_smart_sra(&graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  const std::string line1 = ClfLine("10.8.0.1", 0, 1000000000);
  // A valid CLF line whose URL pads it past the buffer ceiling. The
  // parser accepts it (counts in records_seen); the sessionizer skips
  // the unknown page without a dead letter.
  LogRecord long_record;
  long_record.client_ip = "10.8.0.1";
  long_record.url = "/not-in-the-topology-" + std::string(400, 'x');
  long_record.timestamp = 1000000030;
  const std::string line2 = FormatClfLine(long_record) + "\n";
  // chunk1 ends mid-line2: the 256-byte buffer ceiling is breached and
  // the blocker is paused (kBlock: its socket alone leaves the poll
  // set). chunk2 completes the line but must sit unread in the kernel.
  const std::string chunk1 = line1 + line2.substr(0, line2.size() - 1);
  const std::string chunk2 = line2.substr(line2.size() - 1);
  Result<Fd> blocker = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(WriteAll(*blocker, "HELLO blocker\n").ok());
  ASSERT_TRUE(ReadLine(*blocker).ok());
  ASSERT_TRUE(WriteAll(*blocker, chunk1).ok());
  ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read", chunk1.size()));
  ASSERT_TRUE(WriteAll(*blocker, chunk2).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Pause proof: the completing byte is in the kernel but the server,
  // which no longer polls the blocker, has not read it.
  EXPECT_EQ(CounterValue(&registry, "net.bytes_read"), chunk1.size());

  // The regression itself: a second producer streams an entire log to
  // completion while the blocker sits paused over quota.
  const std::string other_log =
      MakeLog({"10.8.1.1", "10.8.1.2"}, /*rounds=*/20, num_pages, 1000000000);
  ASSERT_TRUE(SendData(harness.server->port(), other_log, "other", 64).ok());
  ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read",
                             chunk1.size() + other_log.size()));
  EXPECT_EQ(harness.server->stats().connections_expired, 0u);
  EXPECT_EQ(harness.server->stats().connections_refused, 0u);

  // QUIESCE drains the blocker's pending byte, completing line2: nothing
  // was lost, the producer was only held back.
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(dead_letters.total_offered(), 0u);
  EXPECT_EQ(harness.engine->records_seen(),
            static_cast<std::uint64_t>(2 + 2 * 20));
}

TEST(NetRobustnessTest, RateLimitedProducerIsLosslessJustSlower) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  const std::string log =
      MakeLog({"10.9.0.1", "10.9.0.2"}, /*rounds=*/15, num_pages, 1000000000);
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.client_quota.bytes_per_sec = 16000;
  options.client_quota.burst_bytes = 512;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  // The producer rides through several pause/refill cycles; every byte
  // still arrives (TCP pushes back, nothing is dropped).
  ASSERT_TRUE(SendData(harness.server->port(), log, "steady", 256).ok());
  ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read", log.size()));
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  EXPECT_EQ(dead_letters.total_offered(), 0u);
  EXPECT_EQ(harness.engine->records_seen(),
            static_cast<std::uint64_t>(2 * 15));
  EXPECT_EQ(harness.server->stats().connections_expired, 0u);
}

// ---------------------------------------------------------------------
// Oversize lines.

TEST(NetRobustnessTest, OversizeLineRejectionIsCountedAndAttributed) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.max_line_bytes = 128;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(WriteAll(*socket, "HELLO biggun\n").ok());
  ASSERT_TRUE(ReadLine(*socket).ok());
  const std::string line = ClfLine("10.10.0.1", 0, 1000000000);
  ASSERT_TRUE(WriteAll(*socket, line).ok());
  ASSERT_TRUE(WaitForCounter(&registry, "net.bytes_read", line.size()));
  // 300 bytes with no newline: past the 128-byte line bound.
  ASSERT_TRUE(WriteAll(*socket, std::string(300, 'z')).ok());
  EXPECT_FALSE(ReadLine(*socket).ok());  // dropped
  ASSERT_TRUE(WaitForCounter(&registry, "net.conn.oversize_rejected", 1));
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok());
  EXPECT_EQ(harness.server->stats().oversize_rejections, 1u);
  EXPECT_EQ(CounterValue(&registry, "net.close.overlong_line"), 1u);
  // The line sent before the abuse was salvaged.
  EXPECT_EQ(sink.entries().size(), 1u);
  ASSERT_EQ(dead_letters.total_offered(), 1u);
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  EXPECT_EQ(letters[0].records_covered, 0u);
  EXPECT_EQ(letters[0].detail, "biggun");
}

// ---------------------------------------------------------------------
// Resetting peers (SIGPIPE / EPIPE regression).

TEST(NetRobustnessTest, ResettingPeersMidReplyNeverKillTheServer) {
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
  // A swarm of peers that RST at the worst moments: mid-handshake-reply
  // (the server's OK write races the reset — EPIPE, never SIGPIPE) and
  // mid-line. The serve loop must shrug off every one.
  for (int i = 0; i < 12; ++i) {
    Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
    ASSERT_TRUE(socket.ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(
          WriteAll(*socket, "HELLO rst-" + std::to_string(i) + "\n").ok());
    } else {
      ASSERT_TRUE(WriteAll(*socket, "10.11.0.1 - - [mid-line").ok());
    }
    ResetHard(&*socket);
  }
  Result<std::string> ping = AdminCommand(harness.server->admin_port(), "PING");
  ASSERT_TRUE(ping.ok()) << ping.status().message();
  EXPECT_EQ(*ping, "OK");
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
}

// ---------------------------------------------------------------------
// Admin-socket abuse.

TEST(NetRobustnessTest, AdminSocketShrugsOffAbuse) {
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
  const std::uint16_t admin = harness.server->admin_port();

  // Oversized command (no newline in sight): closed without ceremony.
  {
    Result<Fd> socket = ConnectTcp("127.0.0.1", admin);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(WriteAll(*socket, std::string(5000, 'A')).ok());
    EXPECT_FALSE(ReadLine(*socket).ok());
  }
  // A command split across writes still parses once the newline lands.
  {
    Result<Fd> socket = ConnectTcp("127.0.0.1", admin);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(WriteAll(*socket, "STA").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(WriteAll(*socket, "TS\n").ok());
    Result<std::string> stats = ReadLine(*socket);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->front(), '{') << *stats;
  }
  // Pipelined commands each get their reply, unknown ones a bounded
  // echo (a hostile command cannot bloat the reply or the log).
  {
    Result<Fd> socket = ConnectTcp("127.0.0.1", admin);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(
        WriteAll(*socket, "PING\n" + std::string(300, 'Q') + "\n").ok());
    Result<std::string> ok = ReadLine(*socket);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(*ok, "OK");
    Result<std::string> err = ReadLine(*socket);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->rfind("ERR unknown command: ", 0), 0u) << *err;
    EXPECT_LE(err->size(), std::string("ERR unknown command: ").size() + 200);
  }
  // Concurrent admin connections: all served, none starved.
  {
    std::vector<std::thread> threads;
    std::vector<Result<std::string>> replies(
        4, Result<std::string>(Status::Internal("unset")));
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back(
          [&, i] { replies[static_cast<std::size_t>(i)] =
                       AdminCommand(admin, "PING"); });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Result<std::string>& reply : replies) {
      ASSERT_TRUE(reply.ok()) << reply.status().message();
      EXPECT_EQ(*reply, "OK");
    }
  }
  // STATS pipelined ahead of QUIESCE is answered before shutdown;
  // anything buffered after the QUIESCE is dropped with the server.
  {
    Result<Fd> socket = ConnectTcp("127.0.0.1", admin);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(WriteAll(*socket, "STATS\nQUIESCE\nSTATS\n").ok());
    Result<std::string> stats = ReadLine(*socket);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->front(), '{') << *stats;
    Result<std::string> quiesced = ReadLine(*socket);
    ASSERT_TRUE(quiesced.ok());
    EXPECT_EQ(quiesced->rfind("OK", 0), 0u) << *quiesced;
  }
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
}

}  // namespace
}  // namespace wum::net
