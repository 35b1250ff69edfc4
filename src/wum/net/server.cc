#include "wum/net/server.h"

#include <algorithm>
#include <utility>

#include "wum/ckpt/codec.h"
#include "wum/obs/log.h"

namespace wum::net {

namespace {
// sink_state layout: magic uvarint, journal state string, offset count,
// then (client-id, offset) pairs. The magic guards against feeding a
// websra_sessionize sink_state (a bare decimal length) to the server.
constexpr std::uint64_t kServeSinkStateMagic = 0x53525645;  // "SRVE"
}  // namespace

std::string EncodeServeSinkState(std::string_view journal_state,
                                 const ClientOffsets& offsets) {
  ckpt::Encoder encoder;
  encoder.PutUvarint(kServeSinkStateMagic);
  encoder.PutString(journal_state);
  encoder.PutUvarint(offsets.size());
  for (const auto& [client_id, offset] : offsets) {
    encoder.PutString(client_id);
    encoder.PutUvarint(offset);
  }
  return encoder.Release();
}

Status DecodeServeSinkState(std::string_view encoded,
                            std::string* journal_state,
                            ClientOffsets* offsets) {
  ckpt::Decoder decoder(encoded);
  WUM_ASSIGN_OR_RETURN(const std::uint64_t magic, decoder.GetUvarint());
  if (magic != kServeSinkStateMagic) {
    return Status::ParseError(
        "sink_state was not written by websra_serve (bad magic)");
  }
  WUM_ASSIGN_OR_RETURN(*journal_state, decoder.GetString());
  WUM_ASSIGN_OR_RETURN(const std::uint64_t count, decoder.GetUvarint());
  offsets->clear();
  offsets->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    WUM_ASSIGN_OR_RETURN(std::string client_id, decoder.GetString());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t offset, decoder.GetUvarint());
    offsets->emplace_back(std::move(client_id), offset);
  }
  return decoder.ExpectEnd();
}

}  // namespace wum::net

#if defined(__unix__) || defined(__APPLE__)

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <sstream>

#include "wum/clf/clf_parser.h"
#include "wum/mine/path_miner.h"
#include "wum/net/http.h"
#include "wum/obs/exposition.h"

namespace wum::net {

namespace {

constexpr std::size_t kMaxAdminLineBytes = 4096;
constexpr std::string_view kHelloPrefix = "HELLO ";

std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

/// One accepted socket: either a data producer (LineBuffer + parser +
/// replay offset state) or an admin session (command buffer).
struct LogServer::Connection {
  Connection(std::size_t max_line_bytes, obs::MetricRegistry* metrics)
      : lines(max_line_bytes), parser(metrics) {}

  Fd fd;
  bool admin = false;
  bool http = false;  // observability scraper: one GET, one reply, close
  bool closing = false;
  std::uint64_t serial = 0;

  // Data state.
  ingest::LineBuffer lines;
  ClfParser parser;
  bool awaiting_handshake = true;
  std::string handshake_buffer;
  std::string client_id;       // empty = anonymous (no replay tracking)
  std::uint64_t base_offset = 0;    // bytes durable before this connection
  std::uint64_t skip_remaining = 0; // replayed bytes left to discard

  // Admin state.
  std::string admin_buffer;

  // HTTP state: the partially read request head.
  std::string http_buffer;

  // Lifecycle / quota state (see DeadlineConfig, ClientQuota).
  TokenBucket bucket;                   // default: unlimited
  std::uint64_t accepted_at_ms = 0;
  std::uint64_t last_activity_ms = 0;
  std::uint64_t partial_since_ms = 0;   // 0 = no incomplete line outstanding
  bool paused = false;                  // fd withheld from poll (pushback)
  std::uint64_t resume_at_ms = 0;       // wheel wake for a rate-limit pause
  std::uint64_t paused_since_ms = 0;    // 0 = not currently paused

  // The chunk at the scan thread, if any: lines that precede every byte
  // still in `lines`.
  std::unique_ptr<ScanJob> in_flight;
};

Result<std::unique_ptr<LogServer>> LogServer::Start(
    ServerOptions options, StreamEngine* engine, DeadLetterQueue* dead_letters,
    ClientOffsets resumed_offsets) {
  if (engine == nullptr) {
    return Status::InvalidArgument("LogServer requires a StreamEngine");
  }
  // The server drives checkpoint cadence itself at connection-pump
  // boundaries (when every consumed byte has been offered), so the
  // per-client offsets in the manifest are exact; a driver-internal
  // mid-batch checkpoint would snapshot offsets for bytes not yet
  // offered. The cadence value moves from the driver options to the
  // server.
  ingest::IngestOptions driver_options = options.ingest;
  driver_options.checkpoint_every_records = 0;
  std::unique_ptr<LogServer> server(new LogServer(
      std::move(options), engine, dead_letters, std::move(resumed_offsets)));
  driver_options.sink_state = [raw = server.get()]() {
    return raw->ComposeSinkState();
  };
  WUM_ASSIGN_OR_RETURN(ingest::IngestDriver driver,
                       ingest::IngestDriver::Create(engine,
                                                    std::move(driver_options)));
  server->driver_.emplace(std::move(driver));
  WUM_RETURN_NOT_OK(server->BindListeners());
  return server;
}

LogServer::LogServer(ServerOptions options, StreamEngine* engine,
                     DeadLetterQueue* dead_letters,
                     ClientOffsets resumed_offsets)
    : options_(std::move(options)),
      engine_(engine),
      dead_letters_(dead_letters),
      client_offsets_(std::move(resumed_offsets)),
      read_buffer_(std::max<std::size_t>(options_.read_buffer_bytes, 1)),
      m_accepted_(obs::CounterIn(options_.metrics,
                                 "net.connections_accepted")),
      m_closed_(obs::CounterIn(options_.metrics, "net.connections_closed")),
      m_handshakes_(obs::CounterIn(options_.metrics, "net.handshakes")),
      m_bytes_read_(obs::CounterIn(options_.metrics, "net.bytes_read")),
      m_shed_(obs::CounterIn(options_.metrics, "net.records_shed")),
      m_admin_(obs::CounterIn(options_.metrics, "net.admin_commands")),
      m_expired_(obs::CounterIn(options_.metrics, "net.conn.expired")),
      m_refused_(obs::CounterIn(options_.metrics, "net.conn.refused")),
      m_quota_shed_(obs::CounterIn(options_.metrics, "net.conn.quota_shed")),
      m_oversize_(obs::CounterIn(options_.metrics,
                                 "net.conn.oversize_rejected")),
      m_pause_ms_(obs::CounterIn(options_.metrics,
                                 "net.conn.pause_time_ms")),
      m_http_requests_(obs::CounterIn(options_.metrics,
                                      "net.http_requests")),
      m_scanned_ahead_(obs::CounterIn(options_.metrics,
                                      "net.chunks_scanned_ahead")),
      g_active_(obs::GaugeIn(options_.metrics, "net.conn.active")) {}

std::uint64_t LogServer::NowMs() const {
  return options_.clock_ms != nullptr ? options_.clock_ms() : MonotonicMillis();
}

Status LogServer::BindListeners() {
  WUM_ASSIGN_OR_RETURN(data_listener_,
                       ListenTcp(options_.host, options_.port));
  WUM_RETURN_NOT_OK(SetNonBlocking(data_listener_, true));
  WUM_ASSIGN_OR_RETURN(port_, BoundPort(data_listener_));
  WUM_ASSIGN_OR_RETURN(admin_listener_,
                       ListenTcp(options_.host, options_.admin_port));
  WUM_RETURN_NOT_OK(SetNonBlocking(admin_listener_, true));
  WUM_ASSIGN_OR_RETURN(admin_port_, BoundPort(admin_listener_));
  if (options_.http_port.has_value()) {
    WUM_ASSIGN_OR_RETURN(http_listener_,
                         ListenTcp(options_.host, *options_.http_port));
    WUM_RETURN_NOT_OK(SetNonBlocking(http_listener_, true));
    WUM_ASSIGN_OR_RETURN(http_port_, BoundPort(http_listener_));
  }
  WUM_ASSIGN_OR_RETURN(auto pipe, MakePipe());
  stop_read_ = std::move(pipe.first);
  stop_write_ = std::move(pipe.second);
  return Status::OK();
}

Result<std::string> LogServer::ComposeSinkState() {
  std::string journal_state;
  if (options_.journal_state != nullptr) {
    WUM_ASSIGN_OR_RETURN(journal_state, options_.journal_state());
  }
  return EncodeServeSinkState(journal_state, client_offsets_);
}

std::uint64_t LogServer::OffsetFor(const std::string& client_id) const {
  for (const auto& [id, offset] : client_offsets_) {
    if (id == client_id) return offset;
  }
  return 0;
}

void LogServer::RecordOffset(const Connection& conn) {
  if (conn.client_id.empty()) return;
  // A chunk in flight was consumed from the LineBuffer but not offered.
  const std::uint64_t offset =
      conn.base_offset + conn.lines.consumed_bytes() -
      (conn.in_flight != nullptr ? conn.in_flight->bytes.size() : 0);
  for (auto& [id, stored] : client_offsets_) {
    if (id == conn.client_id) {
      stored = offset;
      return;
    }
  }
  client_offsets_.emplace_back(conn.client_id, offset);
}

Status LogServer::AcceptPending(Fd* listener, bool admin) {
  while (true) {
    WUM_ASSIGN_OR_RETURN(Fd accepted, Accept(*listener));
    if (!accepted.valid()) return Status::OK();  // drained
    if (!admin) {
      // Admission control: refuse with a reason the producer can act on
      // (back off and retry) rather than queueing invisible producers.
      // The admin port is exempt — operators must reach an overloaded
      // server.
      const std::size_t data_connections = static_cast<std::size_t>(
          std::count_if(connections_.begin(), connections_.end(),
                        [](const auto& c) {
                          return !c->admin && !c->http && !c->closing;
                        }));
      if (data_connections >= options_.max_connections) {
        RefuseConnection(std::move(accepted), "max_connections");
        continue;
      }
      if (options_.ingest_budget_bytes != 0 &&
          BufferedBytesTotal() >= options_.ingest_budget_bytes) {
        RefuseConnection(std::move(accepted), "ingest_budget");
        continue;
      }
    }
    WUM_RETURN_NOT_OK(SetNonBlocking(accepted, true));
    auto conn = std::make_unique<Connection>(options_.max_line_bytes,
                                             options_.metrics);
    conn->fd = std::move(accepted);
    conn->admin = admin;
    conn->serial = ++stats_.connections_accepted;
    const std::uint64_t now = NowMs();
    conn->accepted_at_ms = now;
    conn->last_activity_ms = now;
    if (!admin && options_.client_quota.rate_limited()) {
      conn->bucket = TokenBucket(options_.client_quota.bytes_per_sec,
                                 options_.client_quota.effective_burst(), now);
    }
    m_accepted_.Increment();
    if (!admin) {
      // Malformed lines are logged and quarantine to the shared
      // dead-letter channel, if any, tagged with their producer.
      Connection* raw = conn.get();
      DeadLetterQueue* letters = dead_letters_;
      conn->parser.set_reject_handler(
          [raw, letters](std::uint64_t line_number, std::string_view raw_line,
                         const Status& reason) {
            obs::LogWarn("clf.reject")("line", line_number)(
                "error", reason.message());
            if (letters == nullptr) return;
            DeadLetter letter;
            letter.stage = DeadLetter::Stage::kParse;
            letter.reason = reason;
            letter.detail =
                (raw->client_id.empty() ? std::string("anonymous")
                                        : raw->client_id) +
                " line " + std::to_string(line_number) + ": " +
                std::string(raw_line.substr(0, 200));
            letters->Offer(std::move(letter));
          });
    }
    obs::LogDebug("net.accept")("serial", conn->serial)(
        "kind", admin ? "admin" : "data");
    ArmDeadline(conn.get());
    connections_.push_back(std::move(conn));
    g_active_.Set(static_cast<std::uint64_t>(
        std::count_if(connections_.begin(), connections_.end(),
                      [](const auto& c) { return !c->closing; })));
  }
}

Status LogServer::AcceptHttpPending() {
  while (true) {
    WUM_ASSIGN_OR_RETURN(Fd accepted, Accept(http_listener_));
    if (!accepted.valid()) return Status::OK();  // drained
    const std::size_t http_connections = static_cast<std::size_t>(
        std::count_if(connections_.begin(), connections_.end(),
                      [](const auto& c) { return c->http && !c->closing; }));
    if (http_connections >= options_.max_http_connections) {
      // Close without a response: a scraper retries on its next
      // interval, and a connection flood must not buy loop time.
      ++stats_.connections_refused;
      m_refused_.Increment();
      continue;  // Fd destructor closes
    }
    WUM_RETURN_NOT_OK(SetNonBlocking(accepted, true));
    auto conn = std::make_unique<Connection>(options_.max_line_bytes,
                                             options_.metrics);
    conn->fd = std::move(accepted);
    conn->http = true;
    conn->serial = ++stats_.connections_accepted;
    const std::uint64_t now = NowMs();
    conn->accepted_at_ms = now;
    conn->last_activity_ms = now;
    m_accepted_.Increment();
    obs::LogDebug("net.accept")("serial", conn->serial)("kind", "http");
    ArmDeadline(conn.get());
    connections_.push_back(std::move(conn));
    g_active_.Set(static_cast<std::uint64_t>(
        std::count_if(connections_.begin(), connections_.end(),
                      [](const auto& c) { return !c->closing; })));
  }
}

void LogServer::RefuseConnection(Fd accepted, const char* reason) {
  ++stats_.connections_refused;
  m_refused_.Increment();
  obs::LogWarn("net.refuse")("reason", reason);
  // Tell the peer why before the door shuts — zero write deadline; a
  // peer whose socket cannot take one BUSY line learns from the close.
  (void)WriteAll(accepted, std::string("BUSY ") + reason + "\n",
                 std::chrono::milliseconds(0));
}

void LogServer::CloseConnection(Connection* conn, const char* why) {
  if (conn->closing) return;
  if (conn->in_flight != nullptr) {
    // Every drain path completes the chunk first; a connection closed
    // without draining drops it, but the scan thread must be done with
    // the job before the connection can be freed.
    scan_ahead_.Wait(conn->in_flight.get());
    spare_jobs_.push_back(std::move(conn->in_flight));
  }
  if (conn->paused_since_ms != 0) {
    // Settle the open pause interval so the stall-time counter never
    // undercounts a producer that died while paused.
    m_pause_ms_.Increment(NowMs() - conn->paused_since_ms);
    conn->paused_since_ms = 0;
  }
  conn->closing = true;
  conn->fd.reset();
  wheel_.Cancel(conn->serial);
  ++stats_.connections_closed;
  m_closed_.Increment();
  if (options_.metrics != nullptr) {
    // Per-cause close accounting. Causes are a small fixed set of
    // static strings, and closes are rare — a registry lookup here
    // keeps the hot path free of per-cause handles.
    std::string name = "net.close.";
    for (const char* p = why; *p != '\0'; ++p) {
      name.push_back(*p == ' ' ? '_' : *p);
    }
    options_.metrics->GetCounter(name).Increment();
  }
  g_active_.Set(static_cast<std::uint64_t>(
      std::count_if(connections_.begin(), connections_.end(),
                    [](const auto& c) { return !c->closing; })));
  obs::LogDebug("net.close")("serial", conn->serial)("why", why);
}

void LogServer::Reply(Connection* conn, std::string_view reply) {
  if (conn->closing || !conn->fd.valid()) return;
  const std::chrono::milliseconds deadline =
      options_.deadlines.write_timeout_ms == 0
          ? kDefaultWriteDeadline
          : std::chrono::milliseconds(
                static_cast<std::int64_t>(options_.deadlines.write_timeout_ms));
  const Status written = WriteAll(conn->fd, reply, deadline);
  if (written.ok()) return;
  // A peer that resets (or stops reading) mid-reply costs exactly one
  // connection, never the serve loop.
  obs::LogWarn("net.reply")("serial", conn->serial)(
      "error", written.ToString());
  CloseConnection(conn, written.IsDeadlineExceeded() ? "write timeout"
                                                     : "reply failed");
}

void LogServer::DeadLetterPartial(Connection* conn, const Status& reason) {
  const std::size_t partial = conn->awaiting_handshake
                                  ? conn->handshake_buffer.size()
                                  : conn->lines.buffered_bytes();
  if (partial == 0 || dead_letters_ == nullptr) return;
  DeadLetter letter;
  letter.stage = DeadLetter::Stage::kParse;
  letter.reason = reason;
  letter.detail =
      (conn->client_id.empty() ? std::string("anonymous") : conn->client_id) +
      ": " + std::to_string(partial) + "-byte partial line carried at close";
  // The partial never became an accepted record; the letter is
  // attribution, not record accounting.
  letter.records_covered = 0;
  dead_letters_->Offer(std::move(letter));
}

LogServer::Connection* LogServer::FindBySerial(std::uint64_t serial) {
  for (auto& conn : connections_) {
    if (conn->serial == serial) return conn.get();
  }
  return nullptr;
}

std::uint64_t LogServer::BufferedBytesTotal() const {
  std::uint64_t total = 0;
  for (const auto& conn : connections_) {
    if (conn->closing) continue;
    total += conn->lines.partial_bytes() + conn->handshake_buffer.size();
  }
  return total;
}

void LogServer::ArmDeadline(Connection* conn) {
  if (conn->closing) return;
  if (conn->http) {
    // Always-on request-head deadline: the slow-loris cut-off for
    // scrapers, independent of the opt-in data-port deadlines.
    const std::uint64_t timeout = options_.http_read_timeout_ms != 0
                                      ? options_.http_read_timeout_ms
                                      : 5000;
    wheel_.Schedule(conn->serial, conn->accepted_at_ms + timeout);
    return;
  }
  const DeadlineConfig& d = options_.deadlines;
  std::uint64_t earliest = UINT64_MAX;
  if (conn->paused && conn->resume_at_ms != 0) {
    earliest = std::min(earliest, conn->resume_at_ms);
  }
  if (d.idle_timeout_ms != 0) {
    earliest = std::min(earliest, conn->last_activity_ms + d.idle_timeout_ms);
  }
  if (!conn->admin) {
    if (d.handshake_timeout_ms != 0 && conn->awaiting_handshake) {
      earliest =
          std::min(earliest, conn->accepted_at_ms + d.handshake_timeout_ms);
    }
    if (d.read_timeout_ms != 0 && conn->partial_since_ms != 0) {
      earliest = std::min(earliest, conn->partial_since_ms + d.read_timeout_ms);
    }
  }
  if (earliest == UINT64_MAX) {
    wheel_.Cancel(conn->serial);
    return;
  }
  wheel_.Schedule(conn->serial, earliest);
}

Status LogServer::HandleDeadline(Connection* conn, std::uint64_t now_ms) {
  if (conn->closing) return Status::OK();
  if (conn->http) {
    const std::uint64_t timeout = options_.http_read_timeout_ms != 0
                                      ? options_.http_read_timeout_ms
                                      : 5000;
    if (now_ms < conn->accepted_at_ms + timeout) {
      ArmDeadline(conn);  // early wake
      return Status::OK();
    }
    ++stats_.connections_expired;
    m_expired_.Increment();
    obs::LogWarn("net.expire")("serial", conn->serial)("reason",
                                                       "http timeout");
    Reply(conn, RenderHttpResponse(408, "text/plain", "request timeout\n"));
    CloseConnection(conn, "http timeout");
    return Status::OK();
  }
  if (conn->paused && conn->resume_at_ms != 0 && now_ms >= conn->resume_at_ms) {
    // Rate-limit pause over: the fd rejoins the poll set next
    // iteration. The pause itself was not idleness.
    conn->paused = false;
    conn->resume_at_ms = 0;
    conn->last_activity_ms = now_ms;
    if (conn->paused_since_ms != 0) {
      m_pause_ms_.Increment(now_ms - conn->paused_since_ms);
      conn->paused_since_ms = 0;
    }
  }
  const DeadlineConfig& d = options_.deadlines;
  const char* reason = nullptr;
  if (d.idle_timeout_ms != 0 &&
      now_ms >= conn->last_activity_ms + d.idle_timeout_ms) {
    reason = "idle timeout";
  }
  if (!conn->admin && reason == nullptr) {
    if (d.handshake_timeout_ms != 0 && conn->awaiting_handshake &&
        now_ms >= conn->accepted_at_ms + d.handshake_timeout_ms) {
      reason = "handshake timeout";
    } else if (d.read_timeout_ms != 0 && conn->partial_since_ms != 0 &&
               now_ms >= conn->partial_since_ms + d.read_timeout_ms) {
      reason = "read timeout";
    }
  }
  if (reason != nullptr) return ExpireConnection(conn, reason);
  ArmDeadline(conn);  // early wake or freshly unpaused: re-arm
  return Status::OK();
}

Status LogServer::ExpireConnection(Connection* conn, const char* reason) {
  ++stats_.connections_expired;
  m_expired_.Increment();
  obs::LogWarn("net.expire")("serial", conn->serial)("reason", reason)(
      "client", conn->client_id.empty() ? "anonymous" : conn->client_id);
  // Best-effort protocol farewell with a zero write deadline: the peer
  // being reaped is by definition not a well-behaved reader, and the
  // loop must not stall on its account.
  (void)WriteAll(conn->fd, std::string("ERR ") + reason + "\n",
                 std::chrono::milliseconds(0));
  if (!conn->admin) {
    // Salvage every complete line, then quarantine the carried partial
    // with producer attribution. The replay offset stays on the last
    // line boundary, so an identified client that reconnects re-sends
    // the interrupted line whole.
    if (!conn->awaiting_handshake) {
      WUM_RETURN_NOT_OK(DrainConnection(conn));
    }
    DeadLetterPartial(conn, Status::DeadlineExceeded(reason));
  }
  CloseConnection(conn, reason);
  return Status::OK();
}

Status LogServer::DegradeConnection(Connection* conn, const char* reason,
                                    std::uint64_t now_ms) {
  if (engine_->offer_policy() == OfferPolicy::kShed) {
    // Shed: quarantine the buffered complete lines (pulled through the
    // LineBuffer so the replay offset advances past them — deliberately
    // shed data must not resurrect on resume), drop the partial, and
    // drop the producer. Inline parsing offered every complete line read
    // before the breach; so does the drain, chunk in flight first.
    WUM_RETURN_NOT_OK(DrainConnection(conn));
    std::uint64_t shed_lines = 0;
    while (true) {
      WUM_ASSIGN_OR_RETURN(std::optional<std::string_view> chunk,
                           conn->lines.Next());
      if (!chunk.has_value()) break;
      shed_lines += static_cast<std::uint64_t>(
          std::count(chunk->begin(), chunk->end(), '\n'));
    }
    if (shed_lines > 0) {
      stats_.lines_quota_shed += shed_lines;
      m_quota_shed_.Increment(shed_lines);
      if (dead_letters_ != nullptr) {
        DeadLetter letter;
        letter.stage = DeadLetter::Stage::kParse;
        letter.reason = Status::FailedPrecondition(reason);
        letter.detail = (conn->client_id.empty() ? std::string("anonymous")
                                                 : conn->client_id) +
                        ": " + std::to_string(shed_lines) +
                        " lines shed over quota";
        letter.records_covered = shed_lines;
        dead_letters_->Offer(std::move(letter));
      }
    }
    DeadLetterPartial(conn, Status::FailedPrecondition(reason));
    (void)conn->lines.ShedTail();
    RecordOffset(*conn);
    obs::LogWarn("net.quota")("serial", conn->serial)("action", "shed")(
        "reason", reason)("lines", shed_lines);
    (void)WriteAll(conn->fd, std::string("ERR ") + reason + "\n",
                   std::chrono::milliseconds(0));
    CloseConnection(conn, reason);
    return Status::OK();
  }
  // kBlock: stop polling this fd — the kernel receive buffer fills and
  // TCP pushes back on this producer alone; everyone else keeps
  // flowing. The buffered partial is bounded by max_line_bytes, and the
  // read/idle deadlines are what eventually reap a producer that never
  // completes its line.
  if (!conn->paused) {
    conn->paused = true;
    conn->resume_at_ms = now_ms + 50;  // re-check cadence while blocked
    if (conn->paused_since_ms == 0) conn->paused_since_ms = now_ms;
    obs::LogWarn("net.quota")("serial", conn->serial)("action", "pause")(
        "reason", reason);
    ArmDeadline(conn);
  }
  return Status::OK();
}

template <typename OfferFn>
Status LogServer::OfferFrom(Connection* conn, OfferFn offer) {
  // Only TryOfferBatch sheds, so the before/after stats snapshots that
  // attribute shed records to this producer are taken under kShed only.
  const bool shedding = engine_->offer_policy() == OfferPolicy::kShed;
  const std::uint64_t shed_before =
      shedding ? engine_->TotalStats().records_shed : 0;
  const Status status = offer();
  const std::uint64_t shed_delta =
      shedding ? engine_->TotalStats().records_shed - shed_before : 0;
  if (shed_delta > 0) {
    // The engine counted the drop; keep the conservation invariant
    // (emitted + dead-lettered == accepted) auditable by attributing
    // the shed records to their producer in the dead-letter channel.
    stats_.records_shed += shed_delta;
    m_shed_.Increment(shed_delta);
    obs::LogWarn("net.shed")("serial", conn->serial)("records", shed_delta);
    if (dead_letters_ != nullptr) {
      DeadLetter letter;
      letter.stage = DeadLetter::Stage::kRecord;
      letter.shard = 0;
      letter.reason = Status::FailedPrecondition(
          "shard queue full: records shed under OfferPolicy::kShed");
      letter.detail = conn->client_id.empty() ? std::string("anonymous")
                                              : conn->client_id;
      letter.records_covered = shed_delta;
      dead_letters_->Offer(std::move(letter));
    }
  }
  RecordOffset(*conn);
  WUM_RETURN_NOT_OK(status);
  // Server-driven checkpoint cadence: only at pump boundaries, where
  // every byte the offsets count has been offered (a chunk in flight is
  // left out of them), so the offsets just recorded are exactly what
  // the engine has seen.
  const std::uint64_t cadence = options_.ingest.checkpoint_every_records;
  if (cadence > 0 && driver_->checkpointing() &&
      driver_->records_offered() - records_at_last_checkpoint_ >= cadence) {
    WUM_RETURN_NOT_OK(driver_->CheckpointNow());
    records_at_last_checkpoint_ = driver_->records_offered();
    last_checkpoint_ms_ = NowMs();
  }
  return Status::OK();
}

Status LogServer::PumpConnection(Connection* conn) {
  return OfferFrom(
      conn, [&] { return driver_->Pump(&conn->lines, &conn->parser); });
}

Status LogServer::AdvanceConnection(Connection* conn) {
  if (conn->in_flight == nullptr) WUM_RETURN_NOT_OK(StartScanIfReady(conn));
  // Lines behind a chunk in flight wait for it: per-connection order.
  if (conn->in_flight != nullptr) return Status::OK();
  return PumpConnection(conn);
}

Status LogServer::StartScanIfReady(Connection* conn) {
  if (stopping_ || conn->in_flight != nullptr ||
      conn->lines.complete_bytes() < kScanAheadBytes) {
    return Status::OK();
  }
  // Before any byte leaves the LineBuffer: Submit itself cannot fail.
  WUM_RETURN_NOT_OK(scan_ahead_.Start());
  std::unique_ptr<ScanJob> job;
  if (spare_jobs_.empty()) {
    job = std::make_unique<ScanJob>();
  } else {
    job = std::move(spare_jobs_.back());
    spare_jobs_.pop_back();
  }
  conn->lines.TakeComplete(&job->bytes);
  scan_ahead_.Submit(job.get());
  conn->in_flight = std::move(job);
  ++stats_.chunks_scanned_ahead;
  m_scanned_ahead_.Increment();
  return Status::OK();
}

Status LogServer::CompleteScan(Connection* conn, bool drain) {
  if (conn->in_flight == nullptr) return Status::OK();
  scan_ahead_.Wait(conn->in_flight.get());
  std::unique_ptr<ScanJob> job = std::move(conn->in_flight);
  // The next chunk scans while this one is offered.
  if (!drain) WUM_RETURN_NOT_OK(StartScanIfReady(conn));
  conn->parser.Commit(job->scan);
  const Status offered =
      OfferFrom(conn, [&] { return driver_->OfferRefs(job->refs); });
  spare_jobs_.push_back(std::move(job));
  WUM_RETURN_NOT_OK(offered);
  if (drain || conn->in_flight != nullptr) return Status::OK();
  return PumpConnection(conn);
}

Status LogServer::DrainConnection(Connection* conn) {
  WUM_RETURN_NOT_OK(CompleteScan(conn, /*drain=*/true));
  return PumpConnection(conn);
}

Status LogServer::CompleteFinishedScans() {
  scan_ahead_.DrainWake();
  for (auto& conn : connections_) {
    if (conn->closing || conn->in_flight == nullptr ||
        !scan_ahead_.Done(conn->in_flight.get())) {
      continue;
    }
    WUM_RETURN_NOT_OK(CompleteScan(conn.get(), /*drain=*/false));
  }
  return Status::OK();
}

Status LogServer::HandleData(Connection* conn, std::string_view bytes) {
  stats_.bytes_read += bytes.size();
  m_bytes_read_.Increment(bytes.size());
  if (conn->skip_remaining > 0) {
    // Replay of bytes a checkpoint already covers: discard server-side,
    // so resume is exactly-once even when the client re-sends from
    // byte zero.
    const std::size_t skip =
        std::min<std::size_t>(conn->skip_remaining, bytes.size());
    conn->skip_remaining -= skip;
    bytes.remove_prefix(skip);
  }
  if (bytes.empty()) return Status::OK();
  const Status append = conn->lines.Append(bytes);
  if (!append.ok()) {
    // The refused bytes were still read off the wire, so they already
    // counted against the producer's rate quota at read time; here they
    // are tallied as an oversize rejection and the producer dropped.
    ++stats_.oversize_rejections;
    m_oversize_.Increment();
    if (dead_letters_ != nullptr) {
      DeadLetter letter;
      letter.stage = DeadLetter::Stage::kParse;
      letter.reason = append;
      letter.detail = conn->client_id.empty() ? std::string("anonymous")
                                              : conn->client_id;
      letter.records_covered = 0;  // never became an accepted record
      dead_letters_->Offer(std::move(letter));
    }
    obs::LogWarn("net.overlong")("serial", conn->serial)(
        "error", append.message())("rejected_bytes",
                                   conn->lines.rejected_bytes());
    WUM_RETURN_NOT_OK(DrainConnection(conn));  // salvage complete lines
    CloseConnection(conn, "overlong line");
    return Status::OK();
  }
  return AdvanceConnection(conn);
}

Status LogServer::HandleHandshakeBuffer(Connection* conn) {
  const std::size_t newline = conn->handshake_buffer.find('\n');
  if (newline == std::string::npos) {
    if (conn->handshake_buffer.size() > kMaxAdminLineBytes &&
        conn->handshake_buffer.compare(0, kHelloPrefix.size(),
                                       kHelloPrefix) == 0) {
      CloseConnection(conn, "oversized handshake");
    } else if (conn->handshake_buffer.size() > options_.max_line_bytes) {
      CloseConnection(conn, "oversized first line");
    }
    return Status::OK();
  }
  const std::string buffered = std::move(conn->handshake_buffer);
  conn->handshake_buffer.clear();
  conn->awaiting_handshake = false;
  const std::string_view first_line =
      StripCr(std::string_view(buffered).substr(0, newline));
  if (first_line.size() >= kHelloPrefix.size() &&
      first_line.substr(0, kHelloPrefix.size()) == kHelloPrefix) {
    const std::string client_id(first_line.substr(kHelloPrefix.size()));
    if (client_id.empty()) {
      Reply(conn, "ERR empty client-id\n");
      CloseConnection(conn, "empty client-id");
      return Status::OK();
    }
    for (const auto& other : connections_) {
      if (other.get() != conn && !other->closing &&
          other->client_id == client_id) {
        Reply(conn, "ERR duplicate client-id\n");
        CloseConnection(conn, "duplicate client-id");
        return Status::OK();
      }
    }
    conn->client_id = client_id;
    conn->base_offset = OffsetFor(client_id);
    conn->skip_remaining = conn->base_offset;
    ++stats_.handshakes;
    m_handshakes_.Increment();
    obs::LogInfo("net.handshake")("client", client_id)(
        "skip", conn->base_offset);
    Reply(conn, "OK " + std::to_string(conn->base_offset) + "\n");
    if (conn->closing) return Status::OK();  // peer died taking the reply
    // Anything the client pipelined after HELLO is data.
    return HandleData(conn,
                      std::string_view(buffered).substr(newline + 1));
  }
  // No handshake: the first line is already data. Anonymous producers
  // get no replay tracking (documented at-most-once on restart).
  return HandleData(conn, buffered);
}

Status LogServer::AdminPing(Connection* conn, std::string_view) {
  Reply(conn, "OK\n");
  return Status::OK();
}

Status LogServer::AdminStats(Connection* conn, std::string_view args) {
  if (args.empty()) {
    // Legacy reply, byte-identical to the pre-STATS-JSON contract (the
    // chaos smoke greps it).
    if (options_.metrics == nullptr) {
      Reply(conn, "ERR metrics disabled\n");
    } else {
      Reply(conn, options_.metrics->Snapshot().ToJsonLine() + "\n");
    }
    return Status::OK();
  }
  if (args == "JSON") {
    // The same body /statusz serves, so scripts without an HTTP client
    // get the operational snapshot over the admin protocol.
    Reply(conn, StatuszJson() + "\n");
    return Status::OK();
  }
  Reply(conn, "ERR usage: STATS [JSON]\n");
  return Status::OK();
}

Status LogServer::AdminCheckpoint(Connection* conn, std::string_view) {
  // Inline parsing offers every complete line as it is read; with scan
  // ahead, finish the chunks in flight and the lines behind them first,
  // so a checkpoint still covers every complete line read so far.
  for (auto& data : connections_) {
    if (data->admin || data->http || data->closing ||
        data->awaiting_handshake) {
      continue;
    }
    WUM_RETURN_NOT_OK(DrainConnection(data.get()));
  }
  const Status status = driver_->CheckpointNow();
  if (!status.ok()) {
    Reply(conn, "ERR " + status.message() + "\n");
    return Status::OK();
  }
  records_at_last_checkpoint_ = driver_->records_offered();
  last_checkpoint_ms_ = NowMs();
  Reply(conn,
        "OK records_seen=" + std::to_string(engine_->records_seen()) + "\n");
  return Status::OK();
}

Status LogServer::AdminQuiesce(Connection* conn, std::string_view) {
  std::string detail;
  const Status status = DoQuiesce(&detail);
  if (!status.ok()) {
    // An engine that cannot quiesce is a fatal serve error; the reply
    // is best-effort on the way down.
    Reply(conn, "ERR " + status.message() + "\n");
    return status;
  }
  Reply(conn, detail.empty() ? std::string("OK\n") : "OK " + detail + "\n");
  return Status::OK();
}

Status LogServer::AdminPatterns(Connection* conn, std::string_view args) {
  mine::MiningSink* mining = engine_->mining();
  if (mining == nullptr) {
    Reply(conn, "ERR mining disabled (start with --mine-topk)\n");
    return Status::OK();
  }
  // PATTERNS [k] [len]: both operands optional, k defaults to the
  // configured top_k, len 0 merges every mined length. A length outside
  // the mined range is a usage error, never an empty (and so plausible)
  // pattern list.
  const mine::MinerOptions& options = mining->options();
  const std::string usage = "ERR usage: PATTERNS [k] [len] (len 0 or " +
                            std::to_string(options.min_length) + ".." +
                            std::to_string(options.max_length) + ")\n";
  std::uint64_t operands[2] = {0, 0};
  std::size_t parsed = 0;
  while (!args.empty()) {
    const std::size_t space = args.find(' ');
    const std::string_view token = args.substr(0, space);
    args = space == std::string_view::npos ? std::string_view()
                                           : args.substr(space + 1);
    if (token.empty()) continue;
    std::uint64_t value = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size() ||
        parsed >= 2) {
      Reply(conn, usage);
      return Status::OK();
    }
    operands[parsed++] = value;
  }
  const std::uint64_t length = operands[1];
  if (length != 0 &&
      (length < options.min_length || length > options.max_length)) {
    Reply(conn, usage);
    return Status::OK();
  }
  Reply(conn, mining->PatternsJson(static_cast<std::size_t>(operands[0]),
                                   static_cast<std::size_t>(length)) +
                  "\n");
  return Status::OK();
}

Status LogServer::HandleAdminLine(Connection* conn, std::string_view line) {
  // One row per admin command. Commands that take no operands keep the
  // historical exact-match contract: any trailing text falls through to
  // the shared unknown-command reply.
  struct AdminHandlerEntry {
    std::string_view name;
    bool takes_args;
    Status (LogServer::*run)(Connection* conn, std::string_view args);
  };
  static constexpr AdminHandlerEntry kAdminHandlers[] = {
      {"PING", false, &LogServer::AdminPing},
      {"STATS", true, &LogServer::AdminStats},
      {"CHECKPOINT", false, &LogServer::AdminCheckpoint},
      {"QUIESCE", false, &LogServer::AdminQuiesce},
      {"PATTERNS", true, &LogServer::AdminPatterns},
  };
  line = StripCr(line);
  if (line.empty()) return Status::OK();
  ++stats_.admin_commands;
  m_admin_.Increment();
  obs::LogInfo("net.admin")("command", std::string(line.substr(0, 120)));
  const std::size_t space = line.find(' ');
  const std::string_view name =
      space == std::string_view::npos ? line : line.substr(0, space);
  const std::string_view args =
      space == std::string_view::npos ? std::string_view()
                                      : line.substr(space + 1);
  for (const AdminHandlerEntry& handler : kAdminHandlers) {
    if (handler.name != name) continue;
    if (!handler.takes_args && space != std::string_view::npos) break;
    return (this->*handler.run)(conn, args);
  }
  Reply(conn,
        "ERR unknown command: " + std::string(line.substr(0, 200)) + "\n");
  return Status::OK();
}

Status LogServer::DoQuiesce(std::string* detail) {
  if (quiesced_) {
    if (detail != nullptr) *detail = "already quiesced";
    return Status::OK();
  }
  obs::LogInfo("net.quiesce")("connections", connections_.size());
  stopping_ = true;
  data_listener_.reset();
  // Drain every data producer: first whatever the kernel already holds
  // for the socket (a producer that finished and closed just before the
  // QUIESCE arrived must not lose its tail to ordering), then the
  // buffered remainder (the final unterminated line included), and
  // close. Bytes a still-live producer sends after its socket stops
  // being read are dropped by the close — identified clients recover
  // them through replay.
  for (auto& conn : connections_) {
    if (conn->admin || conn->http || conn->closing) continue;
    // stopping_ is set, so nothing below hands out a new chunk.
    WUM_RETURN_NOT_OK(CompleteScan(conn.get(), /*drain=*/true));
    bool progress = true;
    while (progress && !conn->closing) {
      WUM_RETURN_NOT_OK(HandleReadable(conn.get(), &progress));
    }
    if (conn->closing) continue;  // EOF path already pumped the tail
    if (conn->awaiting_handshake && !conn->handshake_buffer.empty()) {
      // The producer never completed a line; treat the buffer as data.
      const std::string buffered = std::move(conn->handshake_buffer);
      conn->handshake_buffer.clear();
      conn->awaiting_handshake = false;
      WUM_RETURN_NOT_OK(HandleData(conn.get(), buffered));
    }
    conn->lines.Close();
    WUM_RETURN_NOT_OK(PumpConnection(conn.get()));
    CloseConnection(conn.get(), "quiesce");
  }
  WUM_RETURN_NOT_OK(engine_->Finish());
  if (options_.on_quiesce != nullptr) {
    WUM_ASSIGN_OR_RETURN(const std::string hook_detail, options_.on_quiesce());
    if (detail != nullptr) *detail = hook_detail;
  }
  quiesced_ = true;
  return Status::OK();
}

std::string LogServer::HealthProblems() {
  std::string problems;
  const auto add = [&problems](const std::string& problem) {
    if (!problems.empty()) problems += "; ";
    problems += problem;
  };
  const std::vector<Status> health = engine_->ShardHealth();
  for (std::size_t i = 0; i < health.size(); ++i) {
    if (!health[i].ok()) {
      add("shard" + std::to_string(i) + " dead: " + health[i].message());
    }
  }
  if (dead_letters_ != nullptr && dead_letters_->overflow_dropped() > 0) {
    add("dead-letter queue saturated (" +
        std::to_string(dead_letters_->overflow_dropped()) +
        " letters dropped)");
  }
  if (options_.healthz_max_checkpoint_age_ms != 0 &&
      driver_->checkpointing()) {
    // Before the first checkpoint of this run the server's own start is
    // the age baseline, so a daemon that never manages to checkpoint
    // still turns unhealthy.
    const std::uint64_t base =
        last_checkpoint_ms_ != 0 ? last_checkpoint_ms_ : started_at_ms_;
    const std::uint64_t now = NowMs();
    if (base != 0 && now > base &&
        now - base > options_.healthz_max_checkpoint_age_ms) {
      add("checkpoint stale (" + std::to_string(now - base) + "ms old)");
    }
  }
  return problems;
}

std::string LogServer::StatuszJson() {
  const std::uint64_t now = NowMs();
  const std::string problems = HealthProblems();
  const std::vector<EngineStats> shard_stats = engine_->ShardStats();
  const std::vector<Status> shard_health = engine_->ShardHealth();
  const std::size_t active = static_cast<std::size_t>(
      std::count_if(connections_.begin(), connections_.end(),
                    [](const auto& c) { return !c->closing; }));
  // Key order is fixed and every key is always present, so CI and
  // websra_top can assert on the byte shape (same contract as the
  // metrics JSON exporter).
  std::ostringstream out;
  out << "{\"healthy\":" << (problems.empty() ? "true" : "false")
      << ",\"problems\":\"" << obs::internal::EscapeJson(problems)
      << "\",\"server\":{\"uptime_ms\":"
      << (started_at_ms_ != 0 && now > started_at_ms_ ? now - started_at_ms_
                                                      : 0)
      << ",\"port\":" << port_ << ",\"admin_port\":" << admin_port_
      << ",\"http_port\":" << http_port_ << ",\"connections\":{\"active\":"
      << active << ",\"accepted\":" << stats_.connections_accepted
      << ",\"closed\":" << stats_.connections_closed
      << ",\"expired\":" << stats_.connections_expired
      << ",\"refused\":" << stats_.connections_refused
      << "},\"checkpoint\":{\"enabled\":"
      << (driver_->checkpointing() ? "true" : "false") << ",\"age_ms\":"
      << (last_checkpoint_ms_ != 0 && now > last_checkpoint_ms_
              ? now - last_checkpoint_ms_
              : 0)
      << "}},\"engine\":{\"records_seen\":" << engine_->records_seen()
      << ",\"shards\":[";
  for (std::size_t i = 0; i < shard_stats.size(); ++i) {
    const EngineStats& stats = shard_stats[i];
    if (i > 0) out << ",";
    out << "{\"index\":" << i << ",\"healthy\":"
        << (shard_health[i].ok() ? "true" : "false") << ",\"error\":\""
        << obs::internal::EscapeJson(
               shard_health[i].ok() ? "" : shard_health[i].message())
        << "\",\"records_in\":" << stats.records_in
        << ",\"sessions_emitted\":" << stats.sessions_emitted
        << ",\"dead_letters\":" << stats.dead_letters
        << ",\"records_shed\":" << stats.records_shed
        << ",\"queue_depth\":" << engine_->ShardQueueDepth(i)
        << ",\"watermark_seconds\":" << engine_->ShardWatermarkSeconds(i)
        << "}";
  }
  out << "]},\"dead_letters\":{\"attached\":"
      << (dead_letters_ != nullptr ? "true" : "false") << ",\"size\":"
      << (dead_letters_ != nullptr ? dead_letters_->size() : 0)
      << ",\"total_offered\":"
      << (dead_letters_ != nullptr ? dead_letters_->total_offered() : 0)
      << ",\"records_covered\":"
      << (dead_letters_ != nullptr ? dead_letters_->records_covered() : 0)
      << ",\"overflow_dropped\":"
      << (dead_letters_ != nullptr ? dead_letters_->overflow_dropped() : 0)
      << "},\"mining\":{\"enabled\":"
      << (engine_->mining() != nullptr ? "true" : "false") << ",\"sessions_seen\":"
      << (engine_->mining() != nullptr ? engine_->mining()->sessions_seen()
                                       : 0)
      << "}}";
  return out.str();
}

Status LogServer::HandleHttpReadable(Connection* conn) {
  Result<ReadResult> read_result =
      ReadSome(conn->fd, read_buffer_.data(), read_buffer_.size());
  if (!read_result.ok()) {
    CloseConnection(conn, "http read error");
    return Status::OK();
  }
  const ReadResult read = *read_result;
  if (read.would_block) return Status::OK();
  if (read.bytes == 0) {
    if (read.eof) CloseConnection(conn, "http eof");
    return Status::OK();
  }
  conn->http_buffer.append(read_buffer_.data(), read.bytes);
  HttpRequest request;
  switch (ParseHttpRequest(conn->http_buffer, &request)) {
    case HttpParseOutcome::kNeedMore:
      return Status::OK();  // deadline still armed; wait for the rest
    case HttpParseOutcome::kTooLarge:
      Reply(conn,
            RenderHttpResponse(413, "text/plain", "request too large\n"));
      CloseConnection(conn, "http oversized");
      return Status::OK();
    case HttpParseOutcome::kBad:
      Reply(conn, RenderHttpResponse(400, "text/plain", "bad request\n"));
      CloseConnection(conn, "http bad request");
      return Status::OK();
    case HttpParseOutcome::kOk:
      break;
  }
  m_http_requests_.Increment();
  std::string response;
  if (request.method != "GET") {
    response = RenderHttpResponse(400, "text/plain", "only GET is served\n");
  } else if (request.target == "/metrics") {
    response =
        options_.metrics == nullptr
            ? RenderHttpResponse(503, "text/plain", "metrics disabled\n")
            : RenderHttpResponse(
                  200, "text/plain; version=0.0.4",
                  obs::ToPrometheusText(options_.metrics->Snapshot()));
  } else if (request.target == "/healthz") {
    const std::string problems = HealthProblems();
    response = problems.empty()
                   ? RenderHttpResponse(200, "text/plain", "ok\n")
                   : RenderHttpResponse(503, "text/plain", problems + "\n");
  } else if (request.target == "/statusz") {
    response =
        RenderHttpResponse(200, "application/json", StatuszJson() + "\n");
  } else {
    response = RenderHttpResponse(404, "text/plain", "unknown path\n");
  }
  Reply(conn, response);
  CloseConnection(conn, "http served");
  return Status::OK();
}

Status LogServer::HandleReadable(Connection* conn, bool* made_progress) {
  if (conn->http) {
    if (made_progress != nullptr) *made_progress = false;
    return HandleHttpReadable(conn);
  }
  if (made_progress != nullptr) *made_progress = false;
  const std::uint64_t now = NowMs();
  std::size_t capacity = read_buffer_.size();
  if (!conn->admin && !stopping_ && !conn->bucket.unlimited()) {
    const std::uint64_t available = conn->bucket.Available(now);
    if (available == 0) {
      // Rate quota spent: withhold this fd from poll until the bucket
      // refills. The kernel buffer fills, TCP pushes back on this
      // producer alone; nobody else notices.
      conn->paused = true;
      conn->resume_at_ms = conn->bucket.WhenAvailable(1, now);
      if (conn->paused_since_ms == 0) conn->paused_since_ms = now;
      ArmDeadline(conn);
      return Status::OK();
    }
    capacity = std::min<std::size_t>(capacity, available);
  }
  if (!conn->admin && !stopping_) {
    // Read only up to the scan-ahead bound of complete lines, so no
    // chunk for the scan thread outgrows it (the poll loop stops polling
    // an fd at the bound behind a chunk in flight; here, take the chunk
    // back first).
    if (conn->in_flight != nullptr &&
        conn->lines.complete_bytes() >= kScanAheadBound) {
      WUM_RETURN_NOT_OK(CompleteScan(conn, /*drain=*/false));
    }
    if (conn->lines.complete_bytes() < kScanAheadBound) {
      capacity =
          std::min(capacity, kScanAheadBound - conn->lines.complete_bytes());
    }
  }
  Result<ReadResult> read_result =
      ReadSome(conn->fd, read_buffer_.data(), capacity);
  if (!read_result.ok()) {
    // A peer that resets (or any per-socket read failure) costs exactly
    // one connection: salvage complete lines, quarantine the carried
    // partial, close. Never fatal to the serve loop.
    obs::LogWarn("net.read")("serial", conn->serial)(
        "error", read_result.status().ToString());
    if (!conn->admin && !conn->awaiting_handshake) {
      WUM_RETURN_NOT_OK(DrainConnection(conn));
    }
    DeadLetterPartial(conn, read_result.status());
    CloseConnection(conn, read_result.status().IsConnectionReset()
                              ? "peer reset"
                              : "read error");
    return Status::OK();
  }
  const ReadResult read = *read_result;
  if (made_progress != nullptr) *made_progress = !read.would_block;
  if (read.would_block) return Status::OK();
  if (read.bytes > 0) {
    conn->last_activity_ms = now;
    if (!conn->admin) conn->bucket.Consume(read.bytes, now);
    const std::string_view bytes(read_buffer_.data(), read.bytes);
    if (conn->admin) {
      conn->admin_buffer.append(bytes);
      if (conn->admin_buffer.size() > kMaxAdminLineBytes) {
        CloseConnection(conn, "oversized admin command");
        return Status::OK();
      }
      std::size_t newline;
      while (!conn->closing && !quiesced_ &&
             (newline = conn->admin_buffer.find('\n')) != std::string::npos) {
        const std::string line = conn->admin_buffer.substr(0, newline);
        conn->admin_buffer.erase(0, newline + 1);
        WUM_RETURN_NOT_OK(HandleAdminLine(conn, line));
      }
      ArmDeadline(conn);
      return Status::OK();
    }
    Status handled;
    if (conn->awaiting_handshake) {
      conn->handshake_buffer.append(bytes);
      handled = HandleHandshakeBuffer(conn);
    } else {
      handled = HandleData(conn, bytes);
    }
    WUM_RETURN_NOT_OK(handled);
    if (!conn->closing && !stopping_) {
      // Track how long an incomplete line has been outstanding: the
      // clock starts when the partial appears and does NOT reset on
      // further dribble — a one-byte-at-a-time peer cannot extend its
      // read deadline by dribbling.
      const bool has_partial =
          conn->lines.partial_bytes() > 0 ||
          (conn->awaiting_handshake && !conn->handshake_buffer.empty());
      if (!has_partial) {
        conn->partial_since_ms = 0;
      } else if (conn->partial_since_ms == 0) {
        conn->partial_since_ms = now;
      }
      const ClientQuota& quota = options_.client_quota;
      if (quota.max_buffered_bytes != 0 &&
          conn->lines.partial_bytes() + conn->handshake_buffer.size() >
              quota.max_buffered_bytes) {
        WUM_RETURN_NOT_OK(
            DegradeConnection(conn, "buffer quota exceeded", now));
      } else if (options_.ingest_budget_bytes != 0 &&
                 BufferedBytesTotal() > options_.ingest_budget_bytes) {
        WUM_RETURN_NOT_OK(
            DegradeConnection(conn, "ingest budget exceeded", now));
      }
    }
    if (!conn->closing) ArmDeadline(conn);
    return Status::OK();
  }
  if (read.eof) {
    if (!conn->admin) {
      if (conn->awaiting_handshake && !conn->handshake_buffer.empty()) {
        // A stream that never contained a newline: the whole buffer is
        // the final unterminated line.
        const std::string buffered = std::move(conn->handshake_buffer);
        conn->handshake_buffer.clear();
        conn->awaiting_handshake = false;
        WUM_RETURN_NOT_OK(HandleData(conn, buffered));
      }
      WUM_RETURN_NOT_OK(CompleteScan(conn, /*drain=*/true));
      conn->lines.Close();
      WUM_RETURN_NOT_OK(PumpConnection(conn));
    }
    CloseConnection(conn, "eof");
  }
  return Status::OK();
}

Status LogServer::Serve() {
  obs::LogInfo("net.serve")("port", port_)("admin_port", admin_port_)(
      "http_port", http_port_)("resumed_clients", client_offsets_.size());
  started_at_ms_ = NowMs();
  Status result = Status::OK();
  std::vector<pollfd> pollfds;
  std::vector<Connection*> pollconns;
  while (!quiesced_) {
    pollfds.clear();
    pollconns.clear();
    pollfds.push_back(pollfd{stop_read_.get(), POLLIN, 0});
    pollconns.push_back(nullptr);
    if (scan_ahead_.wake_fd() >= 0) {
      pollfds.push_back(pollfd{scan_ahead_.wake_fd(), POLLIN, 0});
      pollconns.push_back(nullptr);
    }
    if (data_listener_.valid() && !stopping_) {
      pollfds.push_back(pollfd{data_listener_.get(), POLLIN, 0});
      pollconns.push_back(nullptr);
    }
    pollfds.push_back(pollfd{admin_listener_.get(), POLLIN, 0});
    pollconns.push_back(nullptr);
    if (http_listener_.valid()) {
      pollfds.push_back(pollfd{http_listener_.get(), POLLIN, 0});
      pollconns.push_back(nullptr);
    }
    for (auto& conn : connections_) {
      // Paused connections (rate quota spent, kBlock degradation) stay
      // open but out of the poll set: per-producer TCP pushback. So does
      // one that buffered up to the bound behind a chunk in flight.
      if (conn->closing || conn->paused) continue;
      if (conn->in_flight != nullptr &&
          conn->lines.complete_bytes() >= kScanAheadBound) {
        continue;
      }
      pollfds.push_back(pollfd{conn->fd.get(), POLLIN, 0});
      pollconns.push_back(conn.get());
    }
    // Sleep until the next wheel deadline (a lower bound — waking early
    // and re-arming is fine), or forever when nothing is scheduled.
    int timeout_ms = -1;
    if (const std::optional<std::uint64_t> next = wheel_.NextDeadline()) {
      const std::uint64_t now = NowMs();
      timeout_ms = *next <= now
                       ? 0
                       : static_cast<int>(
                             std::min<std::uint64_t>(*next - now, 60000));
    }
    const int rc = ::poll(pollfds.data(),
                          static_cast<nfds_t>(pollfds.size()),
                          timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      result = Status::IoError("poll: " + std::string(std::strerror(errno)));
      break;
    }
    Status step = Status::OK();
    for (std::size_t i = 0; i < pollfds.size() && step.ok(); ++i) {
      if ((pollfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int fd = pollfds[i].fd;
      if (fd == stop_read_.get()) {
        char drain[64];
        (void)ReadSome(stop_read_, drain, sizeof(drain));
        step = DoQuiesce(nullptr);
      } else if (fd == scan_ahead_.wake_fd()) {
        step = CompleteFinishedScans();
      } else if (data_listener_.valid() && fd == data_listener_.get()) {
        step = AcceptPending(&data_listener_, /*admin=*/false);
      } else if (fd == admin_listener_.get()) {
        step = AcceptPending(&admin_listener_, /*admin=*/true);
      } else if (http_listener_.valid() && fd == http_listener_.get()) {
        step = AcceptHttpPending();
      } else if (pollconns[i] != nullptr && !pollconns[i]->closing) {
        step = HandleReadable(pollconns[i]);
      }
    }
    if (step.ok() && !quiesced_) {
      // Fire lapsed deadlines after fresh reads: data that arrived in
      // this very poll round counts as activity before expiry judges.
      const std::uint64_t now = NowMs();
      for (const std::uint64_t serial : wheel_.Advance(now)) {
        Connection* conn = FindBySerial(serial);
        if (conn == nullptr || conn->closing) continue;
        step = HandleDeadline(conn, now);
        if (!step.ok()) break;
      }
    }
    if (!step.ok()) {
      result = step;
      break;
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const auto& c) { return c->closing; }),
        connections_.end());
  }
  // The scan thread may hold a job that lives in a connection.
  scan_ahead_.Stop();
  connections_.clear();
  obs::LogInfo("net.serve_done")("ok", result.ok() ? 1 : 0)(
      "accepted", stats_.connections_accepted)("bytes", stats_.bytes_read);
  return result;
}

LogServer::~LogServer() = default;

void LogServer::RequestStop() {
  if (stop_write_.valid()) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(stop_write_.get(), &byte, 1);
  }
}

}  // namespace wum::net

#else  // non-POSIX: the network front end is unavailable.

namespace wum::net {

struct LogServer::Connection {};

LogServer::~LogServer() = default;

Result<std::unique_ptr<LogServer>> LogServer::Start(ServerOptions, StreamEngine*,
                                                    DeadLetterQueue*,
                                                    ClientOffsets) {
  return Status::Unimplemented("websra_serve requires a POSIX platform");
}

Status LogServer::Serve() {
  return Status::Unimplemented("websra_serve requires a POSIX platform");
}

void LogServer::RequestStop() {}

}  // namespace wum::net

#endif
