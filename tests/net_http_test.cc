// The observability HTTP surface: request parsing and response
// rendering units, and the LogServer's in-poll-loop scrape port over a
// real socket — including the hostile cases (non-GET and malformed
// requests answered 400, partial request completing later, oversized
// head answered 413, slow loris reaped 408 by the timer wheel) and the
// /healthz 503 paths (dead-letter saturation, stale checkpoint).

#include "net_test_client.h"
#include "wum/net/http.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "wum/clf/clf_writer.h"
#include "wum/net/server.h"
#include "wum/net/socket.h"
#include "wum/obs/exposition.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum::net {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// ParseHttpRequest units.

TEST(ParseHttpRequestTest, FullRequestParses) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest(
                "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n", &request),
            HttpParseOutcome::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
}

TEST(ParseHttpRequestTest, BareLfRequestParses) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("GET /healthz HTTP/1.0\n\n", &request),
            HttpParseOutcome::kOk);
  EXPECT_EQ(request.target, "/healthz");
}

TEST(ParseHttpRequestTest, PartialRequestNeedsMore) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("", &request), HttpParseOutcome::kNeedMore);
  EXPECT_EQ(ParseHttpRequest("GET /met", &request),
            HttpParseOutcome::kNeedMore);
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.1\r\nHost: x\r\n", &request),
            HttpParseOutcome::kNeedMore);
}

TEST(ParseHttpRequestTest, OversizedHeadRejected) {
  HttpRequest request;
  // No terminator and already over the cap.
  EXPECT_EQ(ParseHttpRequest(std::string(kMaxHttpRequestBytes + 1, 'A'),
                             &request),
            HttpParseOutcome::kTooLarge);
  // Terminated, but the head itself exceeds the cap.
  std::string padded = "GET / HTTP/1.1\r\nX-Pad: " +
                       std::string(kMaxHttpRequestBytes, 'A') + "\r\n\r\n";
  EXPECT_EQ(ParseHttpRequest(padded, &request), HttpParseOutcome::kTooLarge);
}

TEST(ParseHttpRequestTest, MalformedRequestLinesRejected) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("NOSPACES\r\n\r\n", &request),
            HttpParseOutcome::kBad);
  EXPECT_EQ(ParseHttpRequest(" GET / HTTP/1.1\r\n\r\n", &request),
            HttpParseOutcome::kBad);
  EXPECT_EQ(ParseHttpRequest("GET  HTTP/1.1\r\n\r\n", &request),
            HttpParseOutcome::kBad);
  EXPECT_EQ(ParseHttpRequest("GET / FTP/1.1\r\n\r\n", &request),
            HttpParseOutcome::kBad);
}

TEST(RenderHttpResponseTest, RendersStatusLengthAndClose) {
  const std::string response =
      RenderHttpResponse(200, "text/plain", "hello\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 6), "hello\n");
  EXPECT_EQ(RenderHttpResponse(503, "text/plain", "").rfind(
                "HTTP/1.1 503 Service Unavailable\r\n", 0),
            0u);
}

// ---------------------------------------------------------------------
// Socket helpers.

std::string ReadToEof(const Fd& socket) {
  std::string out;
  char buffer[4096];
  while (true) {
    Result<ReadResult> read = ReadSome(socket, buffer, sizeof(buffer));
    if (!read.ok()) break;
    out.append(buffer, read->bytes);
    if (read->eof) break;
  }
  return out;
}

/// Raw request against an HTTP port; returns the full response bytes.
std::string RawRequest(std::uint16_t port, const std::string& bytes) {
  Result<Fd> socket = ConnectTcp("127.0.0.1", port);
  if (!socket.ok()) return "";
  if (!WriteAll(*socket, bytes).ok()) return "";
  return ReadToEof(*socket);
}

// ---------------------------------------------------------------------
// LogServer HTTP port.

/// Engine + server + serve thread; `registry` may be null (then the
/// server runs with metrics disabled, the /metrics 503 path).
struct Harness {
  explicit Harness(obs::MetricRegistry* registry) : registry_(registry) {}

  Status Start(EngineOptions engine_options, SessionSink* sink,
               DeadLetterQueue* dead_letters, ServerOptions server_options) {
    WUM_ASSIGN_OR_RETURN(engine,
                         StreamEngine::Create(std::move(engine_options), sink));
    server_options.metrics = registry_;
    if (!server_options.http_port.has_value()) server_options.http_port = 0;
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

TEST(LogServerHttpTest, ServesAllThreeEndpointsFromThePollLoop) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions()
                             .set_num_shards(2)
                             .use_smart_sra(&graph)
                             .set_metrics(&registry),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  const std::uint16_t http = harness.server->http_port();
  ASSERT_NE(http, 0);

  Result<HttpResponse> metrics = HttpFetch("127.0.0.1", http, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().message();
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_TRUE(obs::LintExposition(metrics->body).ok());
  EXPECT_NE(metrics->body.find("wum_engine_shard0_records_in"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("wum_net_http_requests"), std::string::npos);

  Result<HttpResponse> healthz = HttpFetch("127.0.0.1", http, "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 200);
  EXPECT_EQ(healthz->body, "ok\n");

  Result<HttpResponse> statusz = HttpFetch("127.0.0.1", http, "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status_code, 200);
  EXPECT_EQ(statusz->body.rfind("{\"healthy\":true,", 0), 0u)
      << statusz->body;
  EXPECT_NE(statusz->body.find("\"shards\":[{\"index\":0,"),
            std::string::npos);

  Result<HttpResponse> missing = HttpFetch("127.0.0.1", http, "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);

  // STATS JSON over the admin port is byte-identical to the /statusz
  // body (one line, fixed key order).
  Result<std::string> stats_json =
      AdminCommand(harness.server->admin_port(), "STATS JSON");
  ASSERT_TRUE(stats_json.ok());
  std::string statusz_body = statusz->body;
  while (!statusz_body.empty() && statusz_body.back() == '\n') {
    statusz_body.pop_back();
  }
  // Uptime/age counters advance between the two fetches; compare only
  // the schema prefix before the first time-dependent field.
  const std::size_t uptime = statusz_body.find("\"uptime_ms\":");
  ASSERT_NE(uptime, std::string::npos);
  EXPECT_EQ(stats_json->substr(0, uptime), statusz_body.substr(0, uptime));

  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_GE(harness.server->stats().connections_accepted, 4u);
}

TEST(LogServerHttpTest, MetricsDisabledAnswers503) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  Harness harness(nullptr);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  Result<HttpResponse> metrics =
      HttpFetch("127.0.0.1", harness.server->http_port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status_code, 503);
  EXPECT_EQ(metrics->body, "metrics disabled\n");
  // /healthz and /statusz still work without a registry.
  Result<HttpResponse> healthz =
      HttpFetch("127.0.0.1", harness.server->http_port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 200);
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

TEST(LogServerHttpTest, NonGetAndMalformedAnswered400) {
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
  const std::uint16_t http = harness.server->http_port();
  EXPECT_EQ(RawRequest(http, "POST /metrics HTTP/1.1\r\n\r\n")
                .rfind("HTTP/1.1 400", 0),
            0u);
  EXPECT_EQ(RawRequest(http, "NOSPACES\r\n\r\n").rfind("HTTP/1.1 400", 0),
            0u);

  // HttpGet insists on 200: a 404 is an error, a 200 is the body.
  EXPECT_FALSE(HttpGet("127.0.0.1", http, "/nope").ok());
  Result<std::string> body = HttpGet("127.0.0.1", http, "/healthz");
  ASSERT_TRUE(body.ok()) << body.status().message();
  EXPECT_EQ(*body, "ok\n");

  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
}

TEST(LogServerHttpTest, PartialRequestCompletesAcrossReads) {
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
  Result<Fd> socket =
      ConnectTcp("127.0.0.1", harness.server->http_port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(WriteAll(*socket, "GET /hea").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(WriteAll(*socket, "lthz HTTP/1.1\r\n\r\n").ok());
  const std::string response = ReadToEof(*socket);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("ok\n"), std::string::npos) << response;
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

TEST(LogServerHttpTest, OversizedHeadAnswered413) {
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
  const std::string response =
      RawRequest(harness.server->http_port(),
                 std::string(kMaxHttpRequestBytes + 64, 'A'));
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

TEST(LogServerHttpTest, SlowLorisReaped408ByTimerWheel) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.http_read_timeout_ms = 150;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  Result<Fd> socket =
      ConnectTcp("127.0.0.1", harness.server->http_port());
  ASSERT_TRUE(socket.ok());
  // Start a request, then go silent: the wheel must cut us off.
  ASSERT_TRUE(WriteAll(*socket, "GET /metr").ok());
  const std::string response = ReadToEof(*socket);
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
  EXPECT_EQ(harness.server->stats().connections_expired, 1u);
}

TEST(LogServerHttpTest, HealthzDegradesOnDeadLetterSaturation) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters(/*capacity=*/1);
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, ServerOptions{})
                  .ok());
  // Two malformed lines against a capacity-1 queue: the second one is
  // overflow-dropped, which /healthz must report as saturation.
  {
    Result<Fd> socket = ConnectTcp("127.0.0.1", harness.server->port());
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(WriteAll(*socket, "garbage one\ngarbage two\n").ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (dead_letters.overflow_dropped() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(dead_letters.overflow_dropped(), 0u);
  Result<HttpResponse> healthz =
      HttpFetch("127.0.0.1", harness.server->http_port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 503);
  EXPECT_NE(healthz->body.find("dead-letter queue saturated"),
            std::string::npos)
      << healthz->body;
  // /statusz mirrors the verdict.
  Result<HttpResponse> statusz =
      HttpFetch("127.0.0.1", harness.server->http_port(), "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->body.rfind("{\"healthy\":false,", 0), 0u)
      << statusz->body;
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
}

TEST(LogServerHttpTest, HealthzDegradesOnStaleCheckpoint) {
  if (!NetworkingAvailable()) GTEST_SKIP() << "no POSIX sockets";
  WebGraph graph = MakeFigure1Topology();
  const fs::path dir = fs::path(testing::TempDir()) / "http_stale_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  DeadLetterQueue dead_letters;
  ServerOptions options;
  options.ingest.checkpoint_dir = dir.string();
  options.ingest.checkpoint_every_records = 1000000;  // admin-driven only
  options.healthz_max_checkpoint_age_ms = 1;
  Harness harness(&registry);
  ASSERT_TRUE(harness
                  .Start(EngineOptions().set_num_shards(1).use_smart_sra(
                             &graph),
                         &sink, &dead_letters, std::move(options))
                  .ok());
  // A daemon that never checkpoints ages out against its own start.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Result<HttpResponse> healthz =
      HttpFetch("127.0.0.1", harness.server->http_port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 503);
  EXPECT_NE(healthz->body.find("checkpoint stale"), std::string::npos)
      << healthz->body;
  ASSERT_TRUE(harness.Quiesce().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wum::net
