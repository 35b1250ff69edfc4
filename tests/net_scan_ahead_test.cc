// Scan ahead in wum::net::LogServer: a data connection's complete lines
// parsed on the scan thread while the poll loop offers the chunk before
// must give exactly what inline parsing gives — the same sessions, parse
// stats, replay offsets and reject dead letters (numbered and ordered
// per connection) — and every path that drains a connection (EOF, peer
// reset, read-timeout expiry, an overlong line, a kShed quota breach,
// QUIESCE, CHECKPOINT) must first bring back the chunk in flight, so no
// line is lost or offered twice. A gate on the scan thread holds a
// chunk in flight while the test triggers each path. Every connection
// here sends more than LogServer::kScanAheadBytes at once, so at least
// one of its reads goes to the scan thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/ingest/driver.h"
#include "wum/net/server.h"
#include "wum/net/socket.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum::net {

/// The test seam: runs `hook` on the scan thread before each chunk.
/// Call before Serve() starts.
class LogServerTestPeer {
 public:
  static void SetBeforeScan(LogServer* server, std::function<void()> hook) {
    server->scan_ahead_.before_scan_ = std::move(hook);
  }
};

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Workload helpers.

std::string ClfLine(const std::string& ip, std::uint32_t page,
                    TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return FormatClfLine(record) + "\n";
}

/// `rounds` requests for each of `users`, with gaps that close several
/// sessions per user. With `malformed`, every seventh line is followed
/// by a reject (garbage, a bad status, an unsupported method) and every
/// eleventh by a blank line.
std::string MakeLog(const std::vector<std::string>& users, int rounds,
                    std::uint32_t num_pages, TimeSeconds base,
                    bool malformed = false) {
  std::string log;
  int n = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t u = 0; u < users.size(); ++u) {
      log += ClfLine(users[u], static_cast<std::uint32_t>((u + r) % num_pages),
                     base + r * 600 + static_cast<TimeSeconds>(u));
      ++n;
      if (!malformed) continue;
      if (n % 7 == 0) {
        switch ((n / 7) % 3) {
          case 0:
            log += "garbage line " + std::to_string(n) + "\n";
            break;
          case 1:
            log += users[u] +
                   " - - [01/Jan/2001:00:00:00 +0000] \"GET /x HTTP/1.0\" "
                   "999 1\n";
            break;
          default:
            log += users[u] +
                   " - - [01/Jan/2001:00:00:00 +0000] \"BREW /x HTTP/1.0\" "
                   "200 1\n";
        }
      }
      if (n % 11 == 0) log += "\n";
    }
  }
  return log;
}

std::vector<std::string> Users(int group, int count) {
  std::vector<std::string> users;
  for (int u = 0; u < count; ++u) {
    users.push_back("10.9." + std::to_string(group) + "." + std::to_string(u));
  }
  return users;
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

/// Single-file ingest of `log` through a fresh engine: the baseline.
Canonical IngestDirect(const WebGraph& graph, const std::string& log) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  if (!engine.ok()) return {};
  Result<ingest::IngestDriver> driver =
      ingest::IngestDriver::Create(engine->get(), ingest::IngestOptions{});
  EXPECT_TRUE(driver.ok());
  ClfParser parser;
  std::vector<LogRecordRef> refs;
  EXPECT_TRUE(parser.ParseChunk(log, &refs).ok());
  EXPECT_TRUE(driver->OfferRefs(refs).ok());
  EXPECT_TRUE((*engine)->Finish().ok());
  return Canonicalize(sink.entries());
}

std::size_t CountLines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

// ---------------------------------------------------------------------
// Client-side helpers.

Result<std::string> ReadLine(const Fd& socket) {
  std::string line;
  char byte = 0;
  while (true) {
    WUM_ASSIGN_OR_RETURN(const ReadResult read, ReadSome(socket, &byte, 1));
    if (read.eof) {
      return Status::IoError("connection closed mid-line: " + line);
    }
    if (read.bytes == 0) continue;
    if (byte == '\n') return line;
    line.push_back(byte);
  }
}

Result<Fd> Connect(std::uint16_t port, const std::string& client_id) {
  WUM_ASSIGN_OR_RETURN(Fd socket, ConnectTcp("127.0.0.1", port));
  WUM_RETURN_NOT_OK(WriteAll(socket, "HELLO " + client_id + "\n"));
  WUM_ASSIGN_OR_RETURN(const std::string reply, ReadLine(socket));
  if (reply.rfind("OK", 0) != 0) {
    return Status::FailedPrecondition("handshake refused: " + reply);
  }
  return socket;
}

/// Streams `data` in `chunk`-byte writes after a HELLO, then closes.
Status SendData(std::uint16_t port, const std::string& data,
                const std::string& client_id, std::size_t chunk) {
  WUM_ASSIGN_OR_RETURN(Fd socket, Connect(port, client_id));
  for (std::size_t at = 0; at < data.size(); at += chunk) {
    WUM_RETURN_NOT_OK(
        WriteAll(socket, std::string_view(data).substr(at, chunk)));
  }
  return Status::OK();
}

Result<std::string> AdminCommand(std::uint16_t admin_port,
                                 const std::string& command) {
  WUM_ASSIGN_OR_RETURN(Fd socket, ConnectTcp("127.0.0.1", admin_port));
  WUM_RETURN_NOT_OK(WriteAll(socket, command + "\n"));
  return ReadLine(socket);
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

/// Polls STATS JSON until the engine has seen `records` records (then
/// every byte sent so far has been offered, not just read).
bool WaitForRecordsSeen(std::uint16_t admin_port, std::uint64_t records) {
  const std::string want =
      "\"records_seen\":" + std::to_string(records) + ",";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const Result<std::string> stats = AdminCommand(admin_port, "STATS JSON");
    if (stats.ok() && stats->find(want) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Holds every chunk at the scan thread until released (or 10 s), so a
/// test can act while a chunk is in flight.
class ScanGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(10),
                   [this] { return released_; });
    };
  }

  /// True once a chunk is held at the gate.
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return entered_ > 0; });
  }

  /// Lets every chunk through, now and from now on, after `delay` (the
  /// poll loop meanwhile reaches the drain path under test and waits
  /// for the held chunk there).
  void ReleaseAfter(std::chrono::milliseconds delay) {
    std::this_thread::sleep_for(delay);
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

/// A scan thread slowed down so chunks queue behind each other and
/// connections reach the read bound behind a chunk in flight.
void SlowScan() { std::this_thread::sleep_for(std::chrono::microseconds(300)); }

/// Engine + server + serve thread; `before_scan` (may be null) runs on
/// the scan thread before each chunk.
struct Harness {
  Status Start(EngineOptions engine_options, SessionSink* sink,
               DeadLetterQueue* dead_letters, ServerOptions server_options,
               std::function<void()> before_scan = nullptr) {
    WUM_ASSIGN_OR_RETURN(engine,
                         StreamEngine::Create(std::move(engine_options), sink));
    server_options.metrics = &registry;
    WUM_ASSIGN_OR_RETURN(server,
                         LogServer::Start(std::move(server_options),
                                          engine.get(), dead_letters));
    LogServerTestPeer::SetBeforeScan(server.get(), std::move(before_scan));
    thread = std::thread([this] { serve_status = server->Serve(); });
    return Status::OK();
  }

  Status Quiesce() {
    WUM_ASSIGN_OR_RETURN(const std::string reply,
                         AdminCommand(server->admin_port(), "QUIESCE"));
    if (reply.rfind("OK", 0) != 0) {
      return Status::Internal("quiesce replied: " + reply);
    }
    Join();
    return serve_status;
  }

  void Join() {
    if (thread.joinable()) thread.join();
  }

  ~Harness() {
    if (thread.joinable() && server != nullptr) server->RequestStop();
    Join();
  }

  obs::MetricRegistry registry;
  std::unique_ptr<StreamEngine> engine;
  std::unique_ptr<LogServer> server;
  std::thread thread;
  Status serve_status;
};

constexpr std::size_t kScanAheadBytes = LogServer::kScanAheadBytes;
constexpr std::size_t kScanAheadBound = LogServer::kScanAheadBound;

// ---------------------------------------------------------------------
// Inline against scan-ahead.

struct RunResult {
  Canonical sessions;
  std::uint64_t lines_seen = 0;
  std::uint64_t records_parsed = 0;
  std::uint64_t lines_rejected = 0;
  std::uint64_t records_seen = 0;
  std::uint64_t chunks_scanned_ahead = 0;
  ClientOffsets offsets;
  /// Reject dead letters per client, in the order they were offered.
  std::map<std::string, std::vector<std::string>> letters;
};

/// What inline parsing gives when log i arrives on its own connection
/// as client-i: parse stats summed over the logs, every line offered,
/// and each client's reject dead letters in line order, worded as the
/// server words them.
RunResult ParseEachLog(const std::vector<std::string>& logs) {
  RunResult result;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const std::string client = "client-" + std::to_string(i);
    ClfParser parser;
    parser.set_reject_handler([&](std::uint64_t line_number,
                                  std::string_view raw_line,
                                  const Status& reason) {
      result.letters[client].push_back(
          client + " line " + std::to_string(line_number) + ": " +
          std::string(raw_line.substr(0, 200)) + " | " + reason.message());
    });
    std::vector<LogRecordRef> refs;
    EXPECT_TRUE(parser.ParseChunk(logs[i], &refs).ok());
    result.lines_seen += parser.stats().lines_seen;
    result.records_parsed += parser.stats().records_parsed;
    result.lines_rejected += parser.stats().lines_rejected;
    result.records_seen += refs.size();
    result.offsets.emplace_back(client, logs[i].size());
  }
  std::sort(result.offsets.begin(), result.offsets.end());
  return result;
}

RunResult ServeConcurrently(const WebGraph& graph,
                            const std::vector<std::string>& logs) {
  RunResult result;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness;
  Status started =
      harness.Start(EngineOptions().set_num_shards(2).use_smart_sra(&graph),
                    &sink, &dead_letters, ServerOptions(), SlowScan);
  EXPECT_TRUE(started.ok()) << started.message();
  if (!started.ok()) return result;
  std::vector<std::thread> producers;
  std::vector<Status> sent(logs.size());
  const std::size_t chunks[] = {4096, 997, 65536};
  for (std::size_t i = 0; i < logs.size(); ++i) {
    producers.emplace_back([&, i] {
      sent[i] = SendData(harness.server->port(), logs[i],
                         "client-" + std::to_string(i), chunks[i % 3]);
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (const Status& status : sent) {
    EXPECT_TRUE(status.ok()) << status.message();
  }
  const Status quiesced = harness.Quiesce();
  EXPECT_TRUE(quiesced.ok()) << quiesced.message();
  result.sessions = Canonicalize(sink.entries());
  result.lines_seen = CounterValue(&harness.registry, "clf.lines_seen");
  result.records_parsed = CounterValue(&harness.registry, "clf.records_parsed");
  result.lines_rejected = CounterValue(&harness.registry, "clf.lines_rejected");
  result.records_seen = harness.engine->records_seen();
  result.chunks_scanned_ahead = harness.server->stats().chunks_scanned_ahead;
  EXPECT_EQ(CounterValue(&harness.registry, "net.chunks_scanned_ahead"),
            result.chunks_scanned_ahead);
  result.offsets = harness.server->client_offsets();
  std::sort(result.offsets.begin(), result.offsets.end());
  for (const DeadLetter& letter : dead_letters.Drain()) {
    const std::string client = letter.detail.substr(0, letter.detail.find(' '));
    result.letters[client].push_back(letter.detail + " | " +
                                     letter.reason.message());
  }
  return result;
}

TEST(NetScanAheadTest, MatchesInlineParsingWithMalformedLines) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  std::vector<std::string> logs;
  std::string merged;
  for (int c = 0; c < 3; ++c) {
    logs.push_back(MakeLog(Users(c, 6), /*rounds=*/300, num_pages,
                           /*base=*/1000000000 + c, /*malformed=*/true));
    ASSERT_GT(logs.back().size(), 4 * kScanAheadBound);
    merged += logs.back();
  }
  const RunResult expected = ParseEachLog(logs);
  EXPECT_GT(expected.lines_rejected, 0u);

  // Writes of 4 KiB, 997 B and 64 KiB, and a slow scan thread: some
  // reads are parsed inline, others queue at the scan thread, and
  // connections hit the read bound and leave the poll set.
  const RunResult scan_run = ServeConcurrently(graph, logs);
  EXPECT_GT(scan_run.chunks_scanned_ahead, 0u);

  EXPECT_EQ(scan_run.sessions, IngestDirect(graph, merged));
  EXPECT_EQ(scan_run.lines_seen, expected.lines_seen);
  EXPECT_EQ(scan_run.records_parsed, expected.records_parsed);
  EXPECT_EQ(scan_run.lines_rejected, expected.lines_rejected);
  EXPECT_EQ(scan_run.records_seen, expected.records_seen);
  EXPECT_EQ(scan_run.offsets, expected.offsets);
  ASSERT_EQ(scan_run.offsets.size(), logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    EXPECT_EQ(scan_run.offsets[i].second, logs[i].size());
  }
  EXPECT_EQ(scan_run.letters, expected.letters);
  EXPECT_EQ(scan_run.letters.size(), logs.size());
}

// ---------------------------------------------------------------------
// Drain paths with a chunk in flight.

class NetScanAheadDrainTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
    const auto num_pages = static_cast<std::uint32_t>(graph_.num_pages());
    first_ = MakeLog(Users(1, 4), /*rounds=*/70, num_pages, 1000000000);
    second_ = MakeLog(Users(1, 4), /*rounds=*/25, num_pages, 1000042000);
    // The first write is read at once and becomes one chunk, and
    // everything a test sends after it fits behind that chunk while it
    // is held.
    ASSERT_GE(first_.size(), kScanAheadBytes);
    ASSERT_LT(first_.size(), kScanAheadBound);
    ASSERT_LT(second_.size() + 100, kScanAheadBound);
  }

  /// Sends the first lines and returns once their chunk is held at the
  /// scan thread.
  Result<Fd> ConnectWithChunkInFlight(Harness* harness, ScanGate* gate) {
    WUM_ASSIGN_OR_RETURN(Fd socket,
                         Connect(harness->server->port(), "producer"));
    WUM_RETURN_NOT_OK(WriteAll(socket, first_));
    if (!gate->WaitEntered()) return Status::Internal("no chunk in flight");
    return socket;
  }

  /// Every complete line the server read was offered exactly once: the
  /// sessions equal single-file ingest of `log`.
  void ExpectOffered(const Harness& harness, const CollectingSessionSink& sink,
                     const std::string& log) {
    EXPECT_EQ(harness.engine->records_seen(), CountLines(log));
    EXPECT_EQ(Canonicalize(sink.entries()), IngestDirect(graph_, log));
    EXPECT_GE(harness.server->stats().chunks_scanned_ahead, 1u);
  }

  WebGraph graph_ = MakeFigure1Topology();
  std::string first_;
  std::string second_;
};

TEST_F(NetScanAheadDrainTest, Eof) {
  ScanGate gate;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness;
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph_),
                         &sink, &dead_letters, ServerOptions(), gate.Hook())
                  .ok());
  {
    Result<Fd> socket = ConnectWithChunkInFlight(&harness, &gate);
    ASSERT_TRUE(socket.ok()) << socket.status().message();
    // More lines behind the chunk in flight, and an unterminated last
    // line, then EOF.
    ASSERT_TRUE(WriteAll(*socket, second_.substr(0, second_.size() - 1)).ok());
    ASSERT_TRUE(WaitForCounter(&harness.registry, "net.bytes_read",
                               first_.size() + second_.size() - 1));
  }
  // The EOF path waits for the held chunk.
  gate.ReleaseAfter(std::chrono::milliseconds(50));
  ASSERT_TRUE(WaitForCounter(&harness.registry, "net.close.eof", 1));
  ASSERT_TRUE(harness.Quiesce().ok());
  ExpectOffered(harness, sink, first_ + second_);
  EXPECT_EQ(dead_letters.total_offered(), 0u);
  ASSERT_EQ(harness.server->client_offsets().size(), 1u);
  EXPECT_EQ(harness.server->client_offsets()[0].second,
            first_.size() + second_.size() - 1);
}

TEST_F(NetScanAheadDrainTest, PeerReset) {
  ScanGate gate;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness;
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph_),
                         &sink, &dead_letters, ServerOptions(), gate.Hook())
                  .ok());
  Result<Fd> socket = ConnectWithChunkInFlight(&harness, &gate);
  ASSERT_TRUE(socket.ok()) << socket.status().message();
  const std::string partial = "10.9.1.0 - - [unfinished";
  ASSERT_TRUE(WriteAll(*socket, second_ + partial).ok());
  ASSERT_TRUE(WaitForCounter(&harness.registry, "net.bytes_read",
                             first_.size() + second_.size() + partial.size()));
  ResetHard(&*socket);
  gate.ReleaseAfter(std::chrono::milliseconds(50));
  ASSERT_TRUE(WaitForCounter(&harness.registry, "net.close.peer_reset", 1));
  ASSERT_TRUE(harness.Quiesce().ok());
  ExpectOffered(harness, sink, first_ + second_);
  // Only the carried partial is quarantined.
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].records_covered, 0u);
  EXPECT_NE(letters[0].detail.find("partial line carried at close"),
            std::string::npos);
  ASSERT_EQ(harness.server->client_offsets().size(), 1u);
  EXPECT_EQ(harness.server->client_offsets()[0].second,
            first_.size() + second_.size());
}

TEST_F(NetScanAheadDrainTest, ReadTimeoutExpiry) {
  ScanGate gate;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.deadlines.read_timeout_ms = 100;
  Harness harness;
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph_),
                         &sink, &dead_letters, std::move(options), gate.Hook())
                  .ok());
  Result<Fd> socket = ConnectWithChunkInFlight(&harness, &gate);
  ASSERT_TRUE(socket.ok()) << socket.status().message();
  ASSERT_TRUE(WriteAll(*socket, second_ + "10.9.1.0 - - [unfinished").ok());
  // The deadline lapses while the chunk is held; expiry waits for it.
  gate.ReleaseAfter(std::chrono::milliseconds(300));
  Result<std::string> err = ReadLine(*socket);
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(*err, "ERR read timeout");
  ASSERT_TRUE(harness.Quiesce().ok());
  ExpectOffered(harness, sink, first_ + second_);
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_TRUE(letters[0].reason.IsDeadlineExceeded());
  EXPECT_EQ(harness.server->stats().connections_expired, 1u);
}

TEST_F(NetScanAheadDrainTest, OverlongLine) {
  ScanGate gate;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.max_line_bytes = 512;
  Harness harness;
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph_),
                         &sink, &dead_letters, std::move(options), gate.Hook())
                  .ok());
  Result<Fd> socket = ConnectWithChunkInFlight(&harness, &gate);
  ASSERT_TRUE(socket.ok()) << socket.status().message();
  ASSERT_TRUE(WriteAll(*socket, second_).ok());
  ASSERT_TRUE(WaitForCounter(&harness.registry, "net.bytes_read",
                             first_.size() + second_.size()));
  ASSERT_TRUE(WriteAll(*socket, std::string(2000, 'z')).ok());
  gate.ReleaseAfter(std::chrono::milliseconds(50));
  ASSERT_TRUE(WaitForCounter(&harness.registry, "net.close.overlong_line", 1));
  ASSERT_TRUE(harness.Quiesce().ok());
  ExpectOffered(harness, sink, first_ + second_);
  EXPECT_EQ(harness.server->stats().oversize_rejections, 1u);
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].detail, "producer");
}

TEST_F(NetScanAheadDrainTest, ShedDegrade) {
  ScanGate gate;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.client_quota.max_buffered_bytes = 1024;
  Harness harness;
  ASSERT_TRUE(harness
                  .Start(EngineOptions()
                             .set_num_shards(2)
                             .set_offer_policy(OfferPolicy::kShed)
                             .set_dead_letters(&dead_letters)
                             .use_smart_sra(&graph_),
                         &sink, &dead_letters, std::move(options), gate.Hook())
                  .ok());
  Result<Fd> socket = ConnectWithChunkInFlight(&harness, &gate);
  ASSERT_TRUE(socket.ok()) << socket.status().message();
  // Complete lines behind the chunk in flight, then a partial over the
  // 1 KiB quota.
  ASSERT_TRUE(WriteAll(*socket, second_ + std::string(3000, 'x')).ok());
  gate.ReleaseAfter(std::chrono::milliseconds(50));
  Result<std::string> err = ReadLine(*socket);
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(*err, "ERR buffer quota exceeded");
  ASSERT_TRUE(harness.Quiesce().ok());
  // Like inline parsing, which offers every complete line as it is
  // read: the chunk in flight and the lines behind it are offered, and
  // only the partial over the quota is dropped.
  const std::uint64_t offered = harness.engine->records_seen();
  EXPECT_EQ(offered, CountLines(first_ + second_));
  EXPECT_EQ(harness.server->stats().lines_quota_shed, 0u);
  // Conservation: every offered record reached a shard or was shed
  // there, and every shed record is covered by a dead letter.
  const EngineStats total = harness.engine->TotalStats();
  EXPECT_EQ(total.records_in + total.records_shed, offered);
  EXPECT_EQ(dead_letters.records_covered(), total.records_shed);
  // The replay offset covers exactly the offered lines.
  ASSERT_EQ(harness.server->client_offsets().size(), 1u);
  EXPECT_EQ(harness.server->client_offsets()[0].second,
            first_.size() + second_.size());
}

TEST_F(NetScanAheadDrainTest, Quiesce) {
  ScanGate gate;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness;
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph_),
                         &sink, &dead_letters, ServerOptions(), gate.Hook())
                  .ok());
  Result<Fd> socket = ConnectWithChunkInFlight(&harness, &gate);
  ASSERT_TRUE(socket.ok()) << socket.status().message();
  ASSERT_TRUE(WriteAll(*socket, second_).ok());
  ASSERT_TRUE(WaitForCounter(&harness.registry, "net.bytes_read",
                             first_.size() + second_.size()));
  std::thread release([&gate] {
    gate.ReleaseAfter(std::chrono::milliseconds(50));
  });
  const Status quiesced = harness.Quiesce();  // the producer stays open
  release.join();
  ASSERT_TRUE(quiesced.ok()) << quiesced.message();
  ExpectOffered(harness, sink, first_ + second_);
  EXPECT_EQ(dead_letters.total_offered(), 0u);
}

TEST_F(NetScanAheadDrainTest, AdminCheckpointCoversTheChunkInFlight) {
  const fs::path dir = fs::path(testing::TempDir()) / "net_scan_ahead_ckpt";
  fs::remove_all(dir);
  ScanGate gate;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.ingest.checkpoint_dir = dir.string();
  Harness harness;
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                             &graph_),
                         &sink, &dead_letters, std::move(options), gate.Hook())
                  .ok());
  Result<Fd> socket = ConnectWithChunkInFlight(&harness, &gate);
  ASSERT_TRUE(socket.ok()) << socket.status().message();
  std::thread release([&gate] {
    gate.ReleaseAfter(std::chrono::milliseconds(50));
  });
  Result<std::string> reply =
      AdminCommand(harness.server->admin_port(), "CHECKPOINT");
  release.join();
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  // Like inline parsing: every complete line read is in the checkpoint.
  EXPECT_EQ(*reply, "OK records_seen=" + std::to_string(CountLines(first_)));
  ASSERT_TRUE(WriteAll(*socket, second_).ok());
  socket->reset();
  ASSERT_TRUE(WaitForCounter(&harness.registry, "net.close.eof", 1));
  ASSERT_TRUE(harness.Quiesce().ok());
  ExpectOffered(harness, sink, first_ + second_);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Checkpoint cadence with chunks in flight.

TEST(NetScanAheadTest, CadenceCheckpointsWithChunksInFlightResumeExactly) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const auto num_pages = static_cast<std::uint32_t>(graph.num_pages());
  const fs::path dir = fs::path(testing::TempDir()) / "net_scan_ahead_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::vector<std::string> logs = {
      MakeLog(Users(4, 5), /*rounds=*/400, num_pages, 1000000000),
      MakeLog(Users(5, 5), /*rounds=*/400, num_pages, 1000000003)};
  const Canonical expected = IngestDirect(graph, logs[0] + logs[1]);
  ASSERT_FALSE(expected.empty());

  // The durable journal: truncated to the committed count on "crash".
  std::vector<CollectingSessionSink::Entry> journal;
  std::mutex journal_mutex;
  CallbackSessionSink sink([&](const std::string& user_key, Session session) {
    std::lock_guard<std::mutex> lock(journal_mutex);
    journal.push_back({user_key, std::move(session)});
    return Status::OK();
  });
  // At every checkpoint barrier of the first run (on the poll thread)
  // the offsets must count exactly the lines offered so far: a chunk in
  // flight is read but not offered, so it is in neither.
  std::atomic<const LogServer*> live_server{nullptr};
  std::atomic<const StreamEngine*> live_engine{nullptr};
  std::atomic<int> checkpoints_checked{0};
  std::atomic<int> offset_mismatches{0};
  const StreamEngine::SinkStateFn journal_state = [&]() -> Result<std::string> {
    const LogServer* server = live_server.load();
    const StreamEngine* engine = live_engine.load();
    if (server != nullptr && engine != nullptr) {
      std::uint64_t lines = 0;
      for (const auto& [client, offset] : server->client_offsets()) {
        const std::string& log = logs[client == "client-0" ? 0 : 1];
        if (offset > log.size() || (offset > 0 && log[offset - 1] != '\n')) {
          ++offset_mismatches;
        }
        lines += CountLines(log.substr(0, std::min(offset, log.size())));
      }
      if (lines != engine->records_seen()) ++offset_mismatches;
      ++checkpoints_checked;
    }
    std::lock_guard<std::mutex> lock(journal_mutex);
    return std::to_string(journal.size());
  };
  // A slow scan thread (SlowScan): a chunk is in flight at nearly every
  // offer, and so at nearly every cadence checkpoint.
  const auto Options = [&] {
    ServerOptions options;
    options.ingest.checkpoint_dir = dir.string();
    options.ingest.checkpoint_every_records = 37;
    options.journal_state = journal_state;
    return options;
  };

  // Phase 1: the first 60% of each log, then "crash" (everything
  // emitted after the newest checkpoint is lost).
  std::uint64_t scanned_ahead = 0;
  std::vector<std::string> prefixes;
  std::size_t prefix_lines = 0;
  for (const std::string& log : logs) {
    prefixes.push_back(log.substr(0, log.find('\n', log.size() * 6 / 10) + 1));
    prefix_lines += CountLines(prefixes.back());
  }
  {
    DeadLetterQueue dead_letters;
    Harness harness;
    ASSERT_TRUE(harness
                    .Start(EngineOptions().set_num_shards(2).use_smart_sra(
                               &graph),
                           &sink, &dead_letters, Options(), SlowScan)
                    .ok());
    live_engine = harness.engine.get();
    live_server = harness.server.get();
    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      producers.emplace_back([&, i] {
        EXPECT_TRUE(SendData(harness.server->port(), prefixes[i],
                             "client-" + std::to_string(i), 65536)
                        .ok());
      });
    }
    for (std::thread& producer : producers) producer.join();
    // Offered while streaming, so the cadence checkpoints land between
    // chunks rather than in the QUIESCE drain.
    ASSERT_TRUE(WaitForRecordsSeen(harness.server->admin_port(), prefix_lines));
    ASSERT_TRUE(harness.Quiesce().ok());
    live_server = nullptr;
    live_engine = nullptr;
    scanned_ahead = harness.server->stats().chunks_scanned_ahead;
  }
  EXPECT_GT(scanned_ahead, 0u);
  EXPECT_GT(checkpoints_checked.load(), 3);
  EXPECT_EQ(offset_mismatches.load(), 0);

  // Phase 2: resume from the newest checkpoint; both clients replay
  // from byte zero and the server skips what the checkpoint covers.
  EngineOptions engine_options;
  engine_options.set_num_shards(2).use_smart_sra(&graph);
  engine_options.resume_from(dir.string()).resume_with_external_replay();
  Result<std::unique_ptr<StreamEngine>> resumed =
      StreamEngine::Create(engine_options, &sink);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  std::string committed_state;
  ClientOffsets offsets;
  ASSERT_TRUE(DecodeServeSinkState((*resumed)->resumed_sink_state(),
                                   &committed_state, &offsets)
                  .ok());
  ASSERT_EQ(offsets.size(), 2u);
  for (const auto& [client, offset] : offsets) {
    // Every checkpointed offset lands on a line boundary.
    const std::string& log = logs[client == "client-0" ? 0 : 1];
    ASSERT_GT(offset, 0u);
    ASSERT_LE(offset, log.size());
    EXPECT_EQ(log[offset - 1], '\n') << client << " at " << offset;
  }
  {
    std::lock_guard<std::mutex> lock(journal_mutex);
    const std::size_t committed = std::stoul(committed_state);
    ASSERT_LE(committed, journal.size());
    journal.resize(committed);
  }
  {
    DeadLetterQueue dead_letters;
    Result<std::unique_ptr<LogServer>> server = LogServer::Start(
        Options(), resumed->get(), &dead_letters, offsets);
    ASSERT_TRUE(server.ok()) << server.status().message();
    LogServerTestPeer::SetBeforeScan(server->get(), SlowScan);
    Status serve_status;
    std::thread serve_thread([&] { serve_status = (*server)->Serve(); });
    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      producers.emplace_back([&, i] {
        EXPECT_TRUE(SendData((*server)->port(), logs[i],
                             "client-" + std::to_string(i), 65536)
                        .ok());
      });
    }
    for (std::thread& producer : producers) producer.join();
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
