// websra_serve: the reactive pipeline as a long-running daemon — a TCP
// front end over the same sharded StreamEngine + IngestDriver stack the
// file CLI uses. Many concurrent producers stream CLF lines at the data
// port; sessions accumulate in the engine (one shared user population)
// and are written to --out when the server quiesces. See
// docs/serving.md for the protocol and the restart runbook.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "tool_runtime.h"
#include "tool_util.h"
#include "wum/clf/log_filter.h"
#include "wum/common/string_util.h"
#include "wum/net/server.h"
#include "wum/session/session_io.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/stream/heuristic_registry.h"
#include "wum/topology/graph_io.h"

namespace {

std::string Usage() {
  return "usage: websra_serve --graph FILE --out FILE\n"
         "  [--host ADDR=127.0.0.1] [--port N=0] [--admin-port N=0]\n"
         "  [--port-file FILE] [--admin-port-file FILE]\n"
         "  [--http-port N [--http-port-file FILE]]\n"
         "  [--healthz-max-checkpoint-age-ms N=0]\n"
         "  [--heuristic " +
         wum::HeuristicRegistry::Default().NamesForUsage() +
         "]\n"
         "  [--identity ip|ip-ua] [--delta MINUTES=30] [--rho MINUTES=10]\n"
         "  [--threads N=4] [--queue-capacity N=1024]\n"
         "  [--offer-policy block|shed] [--no-clean]\n"
         "  [--max-connections N=256] [--batch-records N=2048]\n"
         "  [--idle-timeout-ms N=0] [--handshake-timeout-ms N=0]\n"
         "  [--read-timeout-ms N=0] [--write-timeout-ms N=10000]\n"
         "  [--client-quota-bps N=0] [--client-quota-burst N=0]\n"
         "  [--client-buffer-bytes N=0] [--ingest-budget-bytes N=0]\n"
         "  [--format text|binary] [--metrics-out FILE]\n"
         "  [--log-level debug|info|warn|error|off]\n"
         "  [--checkpoint-dir DIR] [--checkpoint-every-records N=100000]\n"
         "  [--resume]\n"
         "  [--mine-topk K [--mine-lengths L=3] [--mine-window N=0]]\n"
         "\n"
         "Accepts line-framed CLF streams from any number of concurrent TCP\n"
         "producers on --port and feeds them all into one sharded\n"
         "StreamEngine. Producers may open with `HELLO <client-id>` to get\n"
         "durable replay offsets (see docs/serving.md); connections without\n"
         "the handshake are served anonymously. Ports default to 0\n"
         "(kernel-assigned); --port-file/--admin-port-file write the bound\n"
         "ports for scripts to discover.\n"
         "\n"
         "The admin port answers one command per line: STATS (JSON metrics\n"
         "snapshot), STATS JSON (the /statusz health document),\n"
         "CHECKPOINT (durable snapshot now), QUIESCE (drain, finish the\n"
         "engine, write --out, exit), PING, and — when mining is on —\n"
         "PATTERNS [k] [len] (top-k frequent paths as JSON).\n"
         "\n"
         "--http-port N opens an HTTP observability port on the same\n"
         "poll loop (0 = kernel-assigned): GET /metrics (Prometheus\n"
         "text), /healthz (200 ok / 503 + reasons: dead shard,\n"
         "dead-letter overflow, or — with\n"
         "--healthz-max-checkpoint-age-ms — a checkpoint older than N\n"
         "ms), /statusz (JSON). Scrape it with Prometheus or watch it\n"
         "live with `websra_top --http-port N`; see\n"
         "docs/observability.md.\n"
         "\n"
         "--mine-topk K turns on reactive top-k frequent-path mining over\n"
         "the live session stream (see docs/mining.md): link-topology-\n"
         "valid paths of lengths 2..--mine-lengths are counted in bounded\n"
         "memory (SpaceSaving) per shard, --mine-window N halves a shard's\n"
         "counts every N paths it mined so the ranking tracks recent\n"
         "traffic, and miner state rides the checkpoint (exact --resume).\n"
         "\n"
         "Records are cleaned inside the engine (GET only, successful\n"
         "status, no embedded resources) unless --no-clean; the robot\n"
         "filter needs the whole log and is batch-only. --offer-policy\n"
         "block (default) applies TCP backpressure to producers when a\n"
         "shard queue fills; shed drops sub-batches and accounts every\n"
         "dropped record to its producer in the dead-letter channel\n"
         "(conservation: emitted + dead-lettered == accepted).\n"
         "\n"
         "Hostile-network hardening (all off by default; 0 disables):\n"
         "--idle-timeout-ms / --handshake-timeout-ms / --read-timeout-ms\n"
         "expire connections that go silent, never finish HELLO, or dribble\n"
         "an incomplete line too long (the peer gets `ERR <reason>`);\n"
         "--write-timeout-ms bounds every reply write. --client-quota-bps\n"
         "(+--client-quota-burst) rate-limits each producer with per-\n"
         "connection TCP pushback; --client-buffer-bytes caps one\n"
         "producer's buffered bytes; --ingest-budget-bytes caps buffered\n"
         "bytes across all producers — over-budget connections are refused\n"
         "with `BUSY <reason>` at accept. See docs/robustness.md for the\n"
         "degradation matrix.\n"
         "\n"
         "--checkpoint-dir makes ingestion durable: the engine snapshots\n"
         "every --checkpoint-every-records records (or on admin\n"
         "CHECKPOINT), sessions journal to DIR, and per-client replay\n"
         "offsets ride in the manifest. After a crash, restart with\n"
         "--resume and have each client re-send its log from byte zero:\n"
         "the server discards what the checkpoint already covers, so the\n"
         "finished output is identical to an uninterrupted run.\n";
}

using wum_tools::CheckpointConfig;

/// Signal handling: SIGINT/SIGTERM write one byte to the server's
/// self-pipe, which the poll loop turns into a graceful quiesce.
std::atomic<int> g_stop_fd{-1};

void HandleStopSignal(int) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = g_stop_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
#endif
}

wum::Status WritePortFile(const std::string& path, std::uint16_t port) {
  std::ofstream out(path, std::ios::trunc);
  out << port << "\n";
  out.flush();
  if (!out) {
    return wum::Status::IoError("cannot write port file " + path);
  }
  return wum::Status::OK();
}

wum::Result<std::uint16_t> GetPort(const wum_tools::Flags& flags,
                                   const char* name) {
  WUM_ASSIGN_OR_RETURN(std::uint64_t value, flags.GetUint(name, 0));
  if (value > 65535) {
    return flags.Invalid(std::string("--") + name + " must be <= 65535");
  }
  return static_cast<std::uint16_t>(value);
}

wum::Status Run(const wum_tools::Flags& flags) {
  const wum_tools::RuntimeFeatures features{.durability = true,
                                            .always_metrics = true};
  WUM_RETURN_NOT_OK(flags.CheckKnown(wum_tools::ToolRuntime::WithFlags(
      {"graph", "out", "host", "port", "admin-port", "port-file",
       "admin-port-file", "http-port", "http-port-file",
       "healthz-max-checkpoint-age-ms", "heuristic", "identity", "delta",
       "rho", "threads",
       "queue-capacity", "offer-policy", "no-clean", "max-connections",
       "batch-records", "format", "idle-timeout-ms", "handshake-timeout-ms",
       "read-timeout-ms", "write-timeout-ms", "client-quota-bps",
       "client-quota-burst", "client-buffer-bytes", "ingest-budget-bytes",
       "mine-topk", "mine-lengths", "mine-window"},
      features)));
  WUM_ASSIGN_OR_RETURN(std::string graph_path, flags.GetRequired("graph"));
  WUM_ASSIGN_OR_RETURN(std::string out_path, flags.GetRequired("out"));
  WUM_ASSIGN_OR_RETURN(wum::WebGraph graph, wum::ReadGraphFile(graph_path));

  wum::TimeThresholds thresholds;
  WUM_ASSIGN_OR_RETURN(std::uint64_t delta_minutes, flags.GetUint("delta", 30));
  WUM_ASSIGN_OR_RETURN(std::uint64_t rho_minutes, flags.GetUint("rho", 10));
  thresholds.max_session_duration =
      wum::Minutes(static_cast<std::int64_t>(delta_minutes));
  thresholds.max_page_stay =
      wum::Minutes(static_cast<std::int64_t>(rho_minutes));

  const std::string identity_name = flags.GetString("identity", "ip");
  wum::UserIdentity identity;
  if (identity_name == "ip") {
    identity = wum::UserIdentity::kClientIp;
  } else if (identity_name == "ip-ua") {
    identity = wum::UserIdentity::kClientIpAndUserAgent;
  } else {
    return flags.Invalid("unknown identity '" + identity_name + "'");
  }

  const std::string format_name = flags.GetString("format", "text");
  wum::SessionFormat format;
  if (format_name == "text") {
    format = wum::SessionFormat::kText;
  } else if (format_name == "binary") {
    format = wum::SessionFormat::kBinary;
  } else {
    return flags.Invalid("unknown format '" + format_name + "'");
  }

  const std::string policy_name = flags.GetString("offer-policy", "block");
  wum::OfferPolicy offer_policy;
  if (policy_name == "block") {
    offer_policy = wum::OfferPolicy::kBlock;
  } else if (policy_name == "shed") {
    offer_policy = wum::OfferPolicy::kShed;
  } else {
    return flags.Invalid("unknown offer policy '" + policy_name + "'");
  }

  WUM_ASSIGN_OR_RETURN(wum_tools::ToolRuntime runtime,
                       wum_tools::ToolRuntime::Start(flags, features));
  const std::optional<CheckpointConfig>& checkpoint = runtime.checkpoint();

  WUM_ASSIGN_OR_RETURN(std::uint64_t threads, flags.GetUint("threads", 4));
  if (threads == 0) {
    return flags.Invalid("--threads must be >= 1");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t queue_capacity,
                       flags.GetUint("queue-capacity", 1024));

  // Every malformed line, every shed record and every record or session
  // the engine rejects as bad data lands here, tagged with where it came
  // from — the daemon never silently loses input.
  wum::DeadLetterQueue dead_letters;

  // kDegrade: one producer's bad record (out of order, page outside the
  // topology) concerns only its own user, so it becomes a dead letter
  // instead of stopping the daemon. An infrastructure error — a journal
  // IoError — still stops it (see wum::IsShardFatal).
  wum::EngineOptions options;
  options.set_num_shards(static_cast<std::size_t>(threads))
      .set_queue_capacity(static_cast<std::size_t>(queue_capacity))
      .set_identity(identity)
      .set_thresholds(thresholds)
      .set_num_pages(graph.num_pages())
      .set_error_policy(wum::ErrorPolicy::kDegrade)
      .set_offer_policy(offer_policy)
      .set_dead_letters(&dead_letters)
      .set_metrics(runtime.metrics())
      .use_graph(&graph)
      .use_heuristic(flags.GetString("heuristic", "smart-sra"));
  WUM_ASSIGN_OR_RETURN(std::optional<wum::mine::MinerOptions> mining,
                       wum_tools::GetMiningFlags(flags));
  if (mining.has_value()) {
    options.set_mining(*mining);
  }
  if (!flags.Has("no-clean")) {
    // The standard cleaning chain runs inside the engine, per record.
    // The robot filter needs a whole-log first pass, so the daemon
    // cannot apply it; compare against `websra_sessionize --streaming
    // --keep-robots` for parity.
    options.add_filter([] { return std::make_unique<wum::MethodFilter>(); });
    options.add_filter([] { return std::make_unique<wum::StatusFilter>(); });
    options.add_filter(
        [] { return std::make_unique<wum::ExtensionFilter>(); });
  }
  WUM_RETURN_NOT_OK(flags.Check(options.Validate()));

  // Sessions go to a durable journal when checkpointing (its flushed
  // length rides in every manifest), to memory otherwise.
  std::string journal_path;
  std::ofstream journal;
  std::vector<wum::UserSession> sessions;
  if (checkpoint.has_value()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint->dir, ec);
    if (ec) {
      return wum::Status::IoError("cannot create " + checkpoint->dir + ": " +
                                  ec.message());
    }
    journal_path = checkpoint->dir + "/journal.sessions-bin";
  }
  wum::CallbackSessionSink sink(
      [&sessions, &journal, &journal_path, &checkpoint](
          const std::string& user_key, wum::Session session) {
        if (checkpoint.has_value()) {
          wum::Status status = wum::AppendSessionBinary(
              wum::UserSession{user_key, std::move(session)}, &journal);
          if (!status.ok()) {
            return wum::Status::IoError("journal " + journal_path + ": " +
                                        status.message());
          }
          return wum::Status::OK();
        }
        sessions.push_back(wum::UserSession{user_key, std::move(session)});
        return wum::Status::OK();
      });

  // Resume replays nothing from disk: the engine only restores shard
  // state and the record count, and the replay arrives over TCP when
  // clients re-send (the server discards bytes the checkpoint already
  // covers). Hence resume_with_external_replay.
  wum::Result<std::unique_ptr<wum::StreamEngine>> created =
      wum::Status::Internal("unreachable");
  if (checkpoint.has_value() && checkpoint->resume) {
    wum::EngineOptions resume_options = options;
    resume_options.resume_from(checkpoint->dir).resume_with_external_replay();
    created = wum::StreamEngine::Create(resume_options, &sink);
    if (!created.ok() && created.status().IsNotFound()) {
      std::cerr << "--resume: " << created.status().message()
                << "; starting fresh\n";
      created = wum::StreamEngine::Create(options, &sink);
    }
  } else {
    created = wum::StreamEngine::Create(options, &sink);
  }
  WUM_RETURN_NOT_OK(created.status());
  std::unique_ptr<wum::StreamEngine> engine = std::move(*created);

  // Journal bring-up mirrors websra_sessionize, except the sink state
  // also carries the per-client replay offsets.
  wum::net::ClientOffsets resumed_offsets;
  if (checkpoint.has_value()) {
    if (engine->resumed()) {
      std::string journal_state;
      WUM_RETURN_NOT_OK(wum::net::DecodeServeSinkState(
          engine->resumed_sink_state(), &journal_state, &resumed_offsets));
      WUM_ASSIGN_OR_RETURN(std::uint64_t committed,
                           wum::ParseUint64(journal_state));
      std::error_code ec;
      std::filesystem::resize_file(journal_path, committed, ec);
      if (ec) {
        return wum::Status::IoError("cannot truncate " + journal_path +
                                    " to its committed length: " +
                                    ec.message());
      }
      journal.open(journal_path, std::ios::binary | std::ios::app);
      if (!journal) {
        return wum::Status::IoError("cannot reopen " + journal_path);
      }
      std::cerr << "resumed from checkpoint: " << engine->resumed_records_seen()
                << " records covered, " << resumed_offsets.size()
                << " client offsets, " << committed
                << " committed journal bytes\n";
    } else {
      journal.open(journal_path, std::ios::binary | std::ios::trunc);
      if (!journal) {
        return wum::Status::IoError("cannot open " + journal_path);
      }
      journal << wum::SessionsBinaryHeaderLine() << '\n';
    }
  }

  std::size_t sessions_written = 0;
  wum::net::ServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  WUM_ASSIGN_OR_RETURN(server_options.port, GetPort(flags, "port"));
  WUM_ASSIGN_OR_RETURN(server_options.admin_port, GetPort(flags, "admin-port"));
  WUM_ASSIGN_OR_RETURN(std::uint64_t max_connections,
                       flags.GetUint("max-connections", 256));
  server_options.max_connections =
      static_cast<std::size_t>(max_connections);
  WUM_ASSIGN_OR_RETURN(std::uint64_t batch_records,
                       flags.GetUint("batch-records", 2048));
  if (batch_records == 0) {
    return flags.Invalid("--batch-records must be >= 1");
  }
  server_options.ingest.batch_records =
      static_cast<std::size_t>(batch_records);
  WUM_ASSIGN_OR_RETURN(server_options.deadlines.idle_timeout_ms,
                       flags.GetUint("idle-timeout-ms", 0));
  WUM_ASSIGN_OR_RETURN(server_options.deadlines.handshake_timeout_ms,
                       flags.GetUint("handshake-timeout-ms", 0));
  WUM_ASSIGN_OR_RETURN(server_options.deadlines.read_timeout_ms,
                       flags.GetUint("read-timeout-ms", 0));
  WUM_ASSIGN_OR_RETURN(server_options.deadlines.write_timeout_ms,
                       flags.GetUint("write-timeout-ms", 10000));
  WUM_ASSIGN_OR_RETURN(server_options.client_quota.bytes_per_sec,
                       flags.GetUint("client-quota-bps", 0));
  WUM_ASSIGN_OR_RETURN(server_options.client_quota.burst_bytes,
                       flags.GetUint("client-quota-burst", 0));
  WUM_ASSIGN_OR_RETURN(server_options.client_quota.max_buffered_bytes,
                       flags.GetUint("client-buffer-bytes", 0));
  WUM_ASSIGN_OR_RETURN(server_options.ingest_budget_bytes,
                       flags.GetUint("ingest-budget-bytes", 0));
  if (flags.Has("http-port")) {
    WUM_ASSIGN_OR_RETURN(std::uint16_t http_port, GetPort(flags, "http-port"));
    server_options.http_port = http_port;
  } else if (flags.Has("http-port-file")) {
    return flags.Invalid("--http-port-file requires --http-port");
  }
  WUM_ASSIGN_OR_RETURN(server_options.healthz_max_checkpoint_age_ms,
                       flags.GetUint("healthz-max-checkpoint-age-ms", 0));
  if (server_options.healthz_max_checkpoint_age_ms != 0 &&
      !checkpoint.has_value()) {
    return flags.Invalid(
        "--healthz-max-checkpoint-age-ms requires --checkpoint-dir");
  }
  if (checkpoint.has_value()) {
    server_options.ingest.checkpoint_dir = checkpoint->dir;
    server_options.ingest.checkpoint_every_records = checkpoint->every_records;
    server_options.journal_state = [&]() -> wum::Result<std::string> {
      journal.flush();
      if (!journal) {
        return wum::Status::IoError("journal write failed: " + journal_path);
      }
      return std::to_string(static_cast<std::uint64_t>(journal.tellp()));
    };
  }
  server_options.metrics = runtime.metrics();
  // QUIESCE: the engine has finished (all sessions emitted), so write
  // the output file and report the count in the admin reply.
  server_options.on_quiesce = [&]() -> wum::Result<std::string> {
    if (checkpoint.has_value()) {
      journal.flush();
      journal.close();
      if (!journal) {
        return wum::Status::IoError("journal write failed: " + journal_path);
      }
      WUM_ASSIGN_OR_RETURN(sessions, wum::ReadSessionsFile(journal_path));
    }
    std::stable_sort(sessions.begin(), sessions.end(),
                     [](const wum::UserSession& a, const wum::UserSession& b) {
                       return a.user_key < b.user_key;
                     });
    WUM_RETURN_NOT_OK(wum::WriteSessionsFile(sessions, out_path, format));
    sessions_written = sessions.size();
    return "sessions=" + std::to_string(sessions_written);
  };

  WUM_ASSIGN_OR_RETURN(
      std::unique_ptr<wum::net::LogServer> server,
      wum::net::LogServer::Start(server_options, engine.get(), &dead_letters,
                                 std::move(resumed_offsets)));
  if (flags.Has("port-file")) {
    WUM_ASSIGN_OR_RETURN(std::string path, flags.GetRequired("port-file"));
    WUM_RETURN_NOT_OK(WritePortFile(path, server->port()));
  }
  if (flags.Has("admin-port-file")) {
    WUM_ASSIGN_OR_RETURN(std::string path,
                         flags.GetRequired("admin-port-file"));
    WUM_RETURN_NOT_OK(WritePortFile(path, server->admin_port()));
  }
  if (flags.Has("http-port-file")) {
    WUM_ASSIGN_OR_RETURN(std::string path, flags.GetRequired("http-port-file"));
    WUM_RETURN_NOT_OK(WritePortFile(path, server->http_port()));
  }
  // Engine config fingerprint on wum_build_info: enough to tell two
  // daemons apart when triaging a scrape.
  runtime.SetBuildLabel(
      "config", "heuristic=" + flags.GetString("heuristic", "smart-sra") +
                    " identity=" + identity_name +
                    " shards=" + std::to_string(threads) +
                    " policy=" + policy_name +
                    " delta=" + std::to_string(delta_minutes) +
                    "m rho=" + std::to_string(rho_minutes) + "m");
  g_stop_fd.store(server->stop_fd(), std::memory_order_relaxed);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::cout << "serving on " << server_options.host << ":" << server->port()
            << " (admin " << server->admin_port();
  if (server_options.http_port.has_value()) {
    std::cout << ", http " << server->http_port();
  }
  std::cout << ")" << std::endl;
  const wum::Status served = server->Serve();
  g_stop_fd.store(-1, std::memory_order_relaxed);
  WUM_RETURN_NOT_OK(served);

  const wum::net::ServeStats& stats = server->stats();
  std::cerr << "server: " << stats.connections_accepted << " connections, "
            << stats.bytes_read << " bytes, " << stats.handshakes
            << " handshakes, " << stats.admin_commands << " admin commands\n";
  std::cerr << "engine[" << engine->num_shards()
            << " shards]: " << wum::EngineStatsToString(engine->TotalStats())
            << "\n";
  if (dead_letters.total_offered() > 0) {
    std::cerr << "dead letters: " << dead_letters.total_offered()
              << " entries covering " << dead_letters.records_covered()
              << " records\n";
  }
  std::cout << "wrote " << sessions_written << " sessions to " << out_path
            << "\n";
  return runtime.Finish(flags);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage = Usage();
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv, {"no-clean", "resume"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), usage.c_str());
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, usage.c_str());
  return 0;
}
