// LogServer: the TCP front end of the reactive pipeline (websra_serve).
//
// A single-threaded poll loop accepts line-framed CLF streams from many
// concurrent producers and feeds them all into one sharded StreamEngine
// through the same IngestDriver the file CLI uses — each connection owns
// a LineBuffer (partial-line carry) and a ClfParser, so per-producer
// line numbering and framing are independent while the user population
// is shared. Per-user FIFO holds because one user's records arrive on
// one connection in order and hash to one shard.
//
// Scan ahead: once a data connection has at least
// LogServer::kScanAheadBytes of complete lines and no chunk in flight,
// its lines go to one scan thread (see scan_ahead.h), which parses
// them while the poll loop offers the chunk before. The poll loop
// commits and offers every chunk itself, in the connection's order, so
// rejects, replay offsets and checkpoints still happen only on the poll
// thread at pump boundaries. Smaller reads are parsed inline, as
// before.
//
// Protocol (data port): optionally one handshake line
//   HELLO <client-id>\n        ->  OK <skip-bytes>\n
// then raw CLF lines until the client closes. The skip-bytes reply is
// the byte offset up to which the server has durably absorbed this
// client's stream (0 for new clients); a resuming client re-sends its
// log and the server discards the first skip-bytes defensively, so
// replay after a crash is exactly-once per client. Connections that
// skip the handshake are anonymous: fully served, never resumed.
//
// Admin port, one command per line:
//   STATS       -> one-line JSON metrics snapshot
//   STATS JSON  -> /statusz-shaped operational JSON (fixed key order)
//   CHECKPOINT  -> triggers StreamEngine::Checkpoint through the driver
//   QUIESCE     -> drains all connections, Finish()es the engine, runs
//                  the on_quiesce hook, replies, and stops the server
//   PING        -> OK
//
// HTTP observability port (opt-in via ServerOptions::http_port), served
// from the same poll loop — no extra threads:
//   GET /metrics  -> Prometheus text exposition of the metric registry
//   GET /healthz  -> 200 "ok" | 503 + reasons (dead shard, dead-letter
//                    overflow, stale checkpoint)
//   GET /statusz  -> operational JSON snapshot (same body as STATS JSON)
// Requests are size-capped, read under a timer-wheel deadline (slow
// loris gets 408), and every response closes the connection.
//
// Backpressure maps per-connection onto the engine's OfferPolicy:
// under kBlock a full shard queue blocks the loop inside OfferBatch —
// sockets stop being read and TCP pushes back on every producer; under
// kShed the engine drops sub-batches, and the server accounts the shed
// delta to the connection that offered it with a synthetic dead letter
// (conservation: emitted + dead-lettered == accepted).
//
// Hostile-network hardening (all opt-in via ServerOptions):
//   * Lifecycle deadlines — idle, handshake and read (partial-line)
//     timeouts enforced from the poll loop by a timer wheel; expired
//     peers get a best-effort "ERR <reason>" and their carried partial
//     is dead-lettered with producer attribution. Reply writes are
//     bounded by a write deadline.
//   * Per-client quotas — a token-bucket byte rate (breach pauses only
//     the offending socket: per-producer TCP pushback, never global)
//     and a buffered-bytes ceiling (breach degrades per OfferPolicy).
//   * Admission control — max_connections and a global ingest byte
//     budget; over-budget connections are answered "BUSY <reason>" at
//     accept and refused.
//
// See docs/serving.md for the full protocol and restart runbook, and
// docs/robustness.md for the degradation matrix and chaos harness.

#ifndef WUM_NET_SERVER_H_
#define WUM_NET_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wum/common/result.h"
#include "wum/ingest/byte_source.h"
#include "wum/ingest/driver.h"
#include "wum/net/quota.h"
#include "wum/net/scan_ahead.h"
#include "wum/net/socket.h"
#include "wum/net/timer_wheel.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"

namespace wum::net {

/// Durable per-client replay offsets: (client-id, bytes absorbed).
/// Stored in the checkpoint manifest's sink_state and handed back to
/// resuming clients as the HELLO skip-bytes reply.
using ClientOffsets = std::vector<std::pair<std::string, std::uint64_t>>;

/// sink_state codec for websra_serve checkpoints: the caller's journal
/// state (committed journal length) plus the per-client offsets, in the
/// ckpt wire format.
std::string EncodeServeSinkState(std::string_view journal_state,
                                 const ClientOffsets& offsets);
Status DecodeServeSinkState(std::string_view encoded,
                            std::string* journal_state,
                            ClientOffsets* offsets);

/// Counters of one Serve() run; also mirrored as net.* metrics when a
/// registry is attached.
struct ServeStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t records_shed = 0;
  std::uint64_t admin_commands = 0;
  /// Connections reaped by a lifecycle deadline (idle / handshake /
  /// read timeout).
  std::uint64_t connections_expired = 0;
  /// Connections answered BUSY and closed at accept (admission control).
  std::uint64_t connections_refused = 0;
  /// Complete lines dead-lettered instead of offered because a client
  /// breached its buffer quota under OfferPolicy::kShed.
  std::uint64_t lines_quota_shed = 0;
  /// Append calls refused for an over-long line (the bytes still count
  /// against the producer's rate quota).
  std::uint64_t oversize_rejections = 0;
  /// Chunks parsed on the scan thread instead of inline.
  std::uint64_t chunks_scanned_ahead = 0;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        // 0 = kernel-assigned; read back via port()
  std::uint16_t admin_port = 0;  // ditto via admin_port()
  std::size_t max_connections = 256;
  std::size_t read_buffer_bytes = 64u << 10;
  std::size_t max_line_bytes = ingest::LineBuffer::kDefaultMaxLineBytes;

  /// Connection lifecycle deadlines, enforced from the poll loop via a
  /// timer wheel (no extra threads). All zero by default: a trusted
  /// network behaves exactly as before this knob existed.
  DeadlineConfig deadlines;

  /// Per-data-connection resource quotas (rate, burst, buffered-bytes
  /// ceiling). Zero fields = unlimited. Breaches degrade per the
  /// engine's OfferPolicy: kBlock pauses only the offending socket (TCP
  /// pushes back on that producer alone), kShed dead-letters with
  /// per-producer attribution.
  ClientQuota client_quota;

  /// Global ceiling on bytes buffered across every connection's
  /// LineBuffer + handshake buffer; new connections are refused with
  /// BUSY while the budget is exhausted. 0 = unlimited.
  std::uint64_t ingest_budget_bytes = 0;

  /// Observability HTTP listener (GET /metrics, /healthz, /statusz).
  /// Unset = no HTTP port; 0 = kernel-assigned, read back via
  /// http_port().
  std::optional<std::uint16_t> http_port;
  /// Concurrent HTTP connections; further accepts are closed without a
  /// response (scrapers retry).
  std::size_t max_http_connections = 32;
  /// Deadline for a complete HTTP request head, enforced from the timer
  /// wheel — a slow-loris scraper is answered 408 and dropped. Always
  /// on (0 falls back to the default), unlike the opt-in data-port
  /// deadlines: the HTTP port serves only tiny GETs, so a deadline can
  /// never punish a legitimate peer.
  std::uint64_t http_read_timeout_ms = 5000;
  /// /healthz reports 503 once the newest checkpoint is older than this
  /// (only while checkpointing is configured). 0 = checkpoint age never
  /// degrades health.
  std::uint64_t healthz_max_checkpoint_age_ms = 0;

  /// Monotonic-milliseconds source for deadlines and quotas; tests
  /// install a manual clock. Defaults to MonotonicMillis.
  std::function<std::uint64_t()> clock_ms;

  /// Driver configuration (batching + checkpoint cadence). Its
  /// sink_state field is overwritten by the server, which composes
  /// journal_state below with the live per-client offsets.
  ingest::IngestOptions ingest;

  /// Captures the caller's durable sink state (e.g. the flushed session
  /// journal length) at each checkpoint barrier; may be null when not
  /// checkpointing.
  StreamEngine::SinkStateFn journal_state;

  /// Runs during QUIESCE after the engine Finish()es (all sessions
  /// emitted); returns a short detail string appended to the OK reply,
  /// e.g. "sessions=412". May be null.
  std::function<Result<std::string>()> on_quiesce;

  obs::MetricRegistry* metrics = nullptr;
};

class LogServerTestPeer;

/// One engine, many producers. Start() binds both listeners (so the
/// kernel-assigned ports are known before the loop runs); Serve() runs
/// the poll loop on the calling thread until QUIESCE, RequestStop, or a
/// fatal engine error. Not restartable: one Serve() per LogServer.
class LogServer {
 public:
  /// A data connection with at least this many bytes of complete lines
  /// and no chunk in flight hands them to the scan thread; smaller reads
  /// are parsed inline on the poll loop. A read never takes a
  /// connection past kScanAheadBound bytes of complete lines, which
  /// bounds a chunk; at that bound, with a chunk in flight, its fd
  /// leaves the poll set until the chunk is back. docs/serving.md
  /// (Threads) has the measurements behind both numbers.
  static constexpr std::size_t kScanAheadBytes = 16u << 10;
  static constexpr std::size_t kScanAheadBound = 2 * kScanAheadBytes;

  /// `engine` and `dead_letters` (nullable) must outlive the server.
  /// `resumed_offsets` seeds the per-client replay offsets from a
  /// decoded checkpoint sink_state.
  static Result<std::unique_ptr<LogServer>> Start(
      ServerOptions options, StreamEngine* engine,
      DeadLetterQueue* dead_letters, ClientOffsets resumed_offsets = {});

  ~LogServer();  // out of line: Connection is an implementation type
  LogServer(const LogServer&) = delete;
  LogServer& operator=(const LogServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint16_t admin_port() const { return admin_port_; }
  /// 0 when ServerOptions::http_port was unset.
  std::uint16_t http_port() const { return http_port_; }

  /// The poll loop. Returns OK after a clean QUIESCE/stop, or the first
  /// fatal error (engine poisoned, listener failure), and closes the
  /// listeners either way. Call once.
  Status Serve();

  /// Initiates a graceful quiesce from another thread. Safe to call
  /// repeatedly.
  void RequestStop();

  /// Write end of the self-pipe: writing one byte is equivalent to
  /// RequestStop and is async-signal-safe (for SIGTERM handlers).
  int stop_fd() const { return stop_write_.get(); }

  /// True once QUIESCE completed (engine finished, hook ran).
  bool quiesced() const { return quiesced_; }

  /// Post-Serve accessors (serve-thread only, after Serve returned).
  const ServeStats& stats() const { return stats_; }
  const ClientOffsets& client_offsets() const { return client_offsets_; }

 private:
  friend class LogServerTestPeer;  // holds the scan thread in tests
  struct Connection;

  LogServer(ServerOptions options, StreamEngine* engine,
            DeadLetterQueue* dead_letters, ClientOffsets resumed_offsets);

  Status BindListeners();
  Result<std::string> ComposeSinkState();
  Status AcceptPending(Fd* listener, bool admin);
  /// Accepts pending HTTP scrapers (capped at max_http_connections).
  Status AcceptHttpPending();
  /// Drives one HTTP connection: buffers the request head, answers one
  /// GET, closes. Hostile input (oversized head, bad request line) is
  /// answered with the matching 4xx and closed.
  Status HandleHttpReadable(Connection* conn);
  /// ""  = healthy; otherwise a comma-joined list of what is wrong
  /// (dead shards, dead-letter overflow, stale checkpoint).
  std::string HealthProblems();
  /// The /statusz (and STATS JSON) body: one line of deterministic
  /// fixed-key-order JSON over server, engine, dead-letter and mining
  /// state.
  std::string StatuszJson();
  Status HandleReadable(Connection* conn, bool* made_progress = nullptr);
  Status HandleData(Connection* conn, std::string_view bytes);
  Status HandleHandshakeBuffer(Connection* conn);
  /// Parses and offers the connection's complete lines inline.
  Status PumpConnection(Connection* conn);
  /// Runs `offer` (one Pump or OfferRefs for this connection), then
  /// attributes any shed records to it, records its replay offset and
  /// applies the checkpoint cadence.
  template <typename OfferFn>
  Status OfferFrom(Connection* conn, OfferFn offer);
  /// Moves new complete lines on: they wait behind a chunk in flight,
  /// go to the scan thread when there are enough of them, and are
  /// parsed inline otherwise.
  Status AdvanceConnection(Connection* conn);
  /// Hands the complete lines to the scan thread if the scan-ahead rule
  /// holds (threshold reached, nothing in flight, not stopping).
  Status StartScanIfReady(Connection* conn);
  /// Takes the connection's chunk back from the scan thread (waiting
  /// for it if need be), commits it and offers its records. With
  /// `drain` the connection is about to be drained: no next chunk is
  /// started and nothing else is pumped. Otherwise the next chunk is
  /// handed over before this one is offered, and a short remainder is
  /// pumped inline afterwards. No-op when nothing is in flight.
  Status CompleteScan(Connection* conn, bool drain);
  /// Completes the chunk in flight, then pumps every complete line
  /// inline: the first step of every path that drains a connection.
  Status DrainConnection(Connection* conn);
  /// Completes every finished chunk (after the scan thread's wake).
  Status CompleteFinishedScans();
  void RecordOffset(const Connection& conn);
  std::uint64_t OffsetFor(const std::string& client_id) const;
  /// Admin commands, dispatched by HandleAdminLine through a table of
  /// named handlers sharing one unknown-command path. `args` holds the
  /// operand text after the command word ("" for none).
  Status AdminPing(Connection* conn, std::string_view args);
  Status AdminStats(Connection* conn, std::string_view args);
  Status AdminCheckpoint(Connection* conn, std::string_view args);
  Status AdminQuiesce(Connection* conn, std::string_view args);
  Status AdminPatterns(Connection* conn, std::string_view args);
  Status HandleAdminLine(Connection* conn, std::string_view line);
  Status DoQuiesce(std::string* detail);
  void CloseConnection(Connection* conn, const char* why);

  std::uint64_t NowMs() const;
  /// Sends a reply; a write failure (peer reset, write deadline) closes
  /// this connection instead of propagating — one hostile reader must
  /// never take down the serve loop.
  void Reply(Connection* conn, std::string_view reply);
  /// Refuses a connection at accept: best-effort "BUSY <reason>" and
  /// close.
  void RefuseConnection(Fd accepted, const char* reason);
  /// Quarantines a connection's carried partial line (tagged with the
  /// producer) before the connection dies with data in flight.
  void DeadLetterPartial(Connection* conn, const Status& reason);
  /// (Re)arms the connection's earliest applicable deadline on the
  /// wheel; cancels when none applies.
  void ArmDeadline(Connection* conn);
  /// Timer-wheel callback: decides which deadline (if any) actually
  /// lapsed and expires or re-arms the connection.
  Status HandleDeadline(Connection* conn, std::uint64_t now_ms);
  /// Reaps a connection whose deadline lapsed: protocol ERR, partial
  /// dead-lettered, complete lines salvaged.
  Status ExpireConnection(Connection* conn, const char* reason);
  /// Degrades a connection that breached its buffer quota or the global
  /// ingest budget, honoring the engine's OfferPolicy.
  Status DegradeConnection(Connection* conn, const char* reason,
                           std::uint64_t now_ms);
  Connection* FindBySerial(std::uint64_t serial);
  /// Partial-line carries plus handshake buffers across connections
  /// (complete lines waiting behind a chunk in flight are bounded by
  /// the scan-ahead rule instead).
  std::uint64_t BufferedBytesTotal() const;

  ServerOptions options_;
  StreamEngine* engine_;
  DeadLetterQueue* dead_letters_;
  // Created by Start after the server exists (its sink_state lambda
  // captures `this`), hence optional rather than a direct member.
  std::optional<ingest::IngestDriver> driver_;

  Fd data_listener_;
  Fd admin_listener_;
  Fd http_listener_;  // invalid unless options_.http_port is set
  Fd stop_read_;
  Fd stop_write_;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
  std::uint16_t http_port_ = 0;

  std::vector<std::unique_ptr<Connection>> connections_;
  ClientOffsets client_offsets_;
  std::vector<char> read_buffer_;
  std::uint64_t records_at_last_checkpoint_ = 0;
  /// Checkpoint-age baseline for /healthz: Serve() start, then each
  /// completed checkpoint.
  std::uint64_t last_checkpoint_ms_ = 0;
  /// Serve() start (monotonic ms) for /statusz uptime.
  std::uint64_t started_at_ms_ = 0;
  bool stopping_ = false;
  bool quiesced_ = false;
  ServeStats stats_;
  TimerWheel wheel_;

  obs::Counter m_accepted_;
  obs::Counter m_closed_;
  obs::Counter m_handshakes_;
  obs::Counter m_bytes_read_;
  obs::Counter m_shed_;
  obs::Counter m_admin_;
  obs::Counter m_expired_;
  obs::Counter m_refused_;
  obs::Counter m_quota_shed_;
  obs::Counter m_oversize_;
  /// Total wall time data fds spent withheld from poll (rate-limit and
  /// kBlock quota pauses) — the backpressure stall the quota layer
  /// imposed on producers, in milliseconds.
  obs::Counter m_pause_ms_;
  obs::Counter m_http_requests_;
  obs::Counter m_scanned_ahead_;
  obs::Gauge g_active_;

  /// Jobs back from the scan thread, reused for the next chunk of any
  /// connection: the pool holds one more job than the most chunks ever
  /// in flight at once.
  std::vector<std::unique_ptr<ScanJob>> spare_jobs_;
  /// Declared last so it is destroyed first: its thread may still hold
  /// a job that lives in a connection.
  ScanAhead scan_ahead_;
};

}  // namespace wum::net

#endif  // WUM_NET_SERVER_H_
