// websra_logclient: a minimal producer/admin client for websra_serve,
// used by the tests and the CI smoke leg. Data mode streams a log file
// to the server's data port (optionally identified via the HELLO
// handshake); admin mode sends one command to the admin port and prints
// the reply.

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tool_util.h"
#include "wum/net/chaos.h"
#include "wum/net/socket.h"

namespace {

constexpr char kUsage[] =
    "usage: websra_logclient --port N [--host ADDR=127.0.0.1]\n"
    "  data mode:  --log FILE [--client-id ID] [--chunk-bytes N=65536]\n"
    "              [--throttle-ms N=0]\n"
    "  chaos:      [--chaos-seed N=1] [--chaos-trickle]\n"
    "              [--chaos-stall-prob P] [--chaos-stall-ms N=5]\n"
    "              [--chaos-short-write-prob P] [--chaos-corrupt-prob P]\n"
    "              [--chaos-reset-prob P] [--chaos-half-open-ms N=0]\n"
    "  admin mode: --admin COMMAND\n"
    "  common:     [--connect-retries N=50]\n"
    "\n"
    "Data mode connects to a websra_serve data port and streams FILE,\n"
    "always from byte zero. With --client-id it first sends\n"
    "`HELLO <id>` and prints the server's `OK <skip-bytes>` reply; the\n"
    "server discards the bytes its last checkpoint already covers, so\n"
    "the client never skips locally (skipping on both sides would lose\n"
    "data). --chunk-bytes sizes each write; --throttle-ms sleeps between\n"
    "writes to simulate a slow producer.\n"
    "\n"
    "Admin mode sends COMMAND (PING, STATS, CHECKPOINT, QUIESCE) to the\n"
    "admin port, prints the one-line reply, and exits 0 iff the reply is\n"
    "an OK or a JSON snapshot.\n"
    "\n"
    "--connect-retries waits for a server still starting up: the connect\n"
    "is retried every 100ms up to N times.\n"
    "\n"
    "The --chaos-* flags misbehave on the wire per a seeded schedule\n"
    "(wum::net::ChaosSocket): stalls, one-byte trickle, short writes,\n"
    "flipped bytes, mid-stream RST. An injected reset is the expected\n"
    "outcome, reported on stdout with exit 0 — the assertion lives on\n"
    "the server side. --chaos-half-open-ms holds the connection open\n"
    "and silent for N ms after the stream is sent, so the server's\n"
    "idle deadline can be observed reaping it.\n";

/// Connects with retries so scripts can race the client against a
/// server that is still binding its port.
wum::Result<wum::net::Fd> ConnectWithRetries(const std::string& host,
                                             std::uint16_t port,
                                             std::uint64_t retries) {
  wum::Result<wum::net::Fd> connected =
      wum::Status::Internal("unreachable");
  for (std::uint64_t attempt = 0;; ++attempt) {
    connected = wum::net::ConnectTcp(host, port);
    if (connected.ok() || attempt >= retries) return connected;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// Reads one '\n'-terminated reply line (blocking socket).
wum::Result<std::string> ReadReplyLine(const wum::net::Fd& socket) {
  std::string line;
  char byte = 0;
  while (true) {
    WUM_ASSIGN_OR_RETURN(const wum::net::ReadResult read,
                         wum::net::ReadSome(socket, &byte, 1));
    if (read.eof) {
      return wum::Status::IoError("server closed the connection mid-reply" +
                                  (line.empty() ? "" : ": " + line));
    }
    if (read.bytes == 0) continue;
    if (byte == '\n') return line;
    line.push_back(byte);
    if (line.size() > 1u << 20) {
      return wum::Status::ParseError("reply line exceeds 1MiB");
    }
  }
}

wum::Status RunAdmin(const wum::net::Fd& socket, const std::string& command) {
  WUM_RETURN_NOT_OK(wum::net::WriteAll(socket, command + "\n"));
  WUM_ASSIGN_OR_RETURN(const std::string reply, ReadReplyLine(socket));
  std::cout << reply << "\n";
  const bool ok = reply.rfind("OK", 0) == 0 || reply.rfind("{", 0) == 0;
  if (!ok) {
    return wum::Status::FailedPrecondition("server replied: " + reply);
  }
  return wum::Status::OK();
}

/// Parsed --chaos-* flags; `enabled` says whether to wrap the socket at
/// all (pure --chaos-seed with no fault class stays a plain socket).
struct ChaosConfig {
  bool enabled = false;
  std::uint64_t half_open_ms = 0;
  wum::net::ChaosOptions options;
};

wum::Result<ChaosConfig> ParseChaos(const wum_tools::Flags& flags) {
  ChaosConfig config;
  WUM_ASSIGN_OR_RETURN(config.options.seed, flags.GetUint("chaos-seed", 1));
  WUM_ASSIGN_OR_RETURN(config.options.stall_probability,
                       flags.GetDouble("chaos-stall-prob", 0.0));
  WUM_ASSIGN_OR_RETURN(config.options.stall_ms,
                       flags.GetUint("chaos-stall-ms", 5));
  config.options.trickle = flags.Has("chaos-trickle");
  WUM_ASSIGN_OR_RETURN(config.options.short_write_probability,
                       flags.GetDouble("chaos-short-write-prob", 0.0));
  WUM_ASSIGN_OR_RETURN(config.options.corrupt_probability,
                       flags.GetDouble("chaos-corrupt-prob", 0.0));
  WUM_ASSIGN_OR_RETURN(config.options.reset_probability,
                       flags.GetDouble("chaos-reset-prob", 0.0));
  WUM_ASSIGN_OR_RETURN(config.half_open_ms,
                       flags.GetUint("chaos-half-open-ms", 0));
  config.enabled = config.options.trickle ||
                   config.options.stall_probability > 0.0 ||
                   config.options.short_write_probability > 0.0 ||
                   config.options.corrupt_probability > 0.0 ||
                   config.options.reset_probability > 0.0;
  return config;
}

wum::Status RunData(wum::net::Fd socket, const wum_tools::Flags& flags,
                    const std::string& log_path) {
  if (flags.Has("client-id")) {
    WUM_ASSIGN_OR_RETURN(std::string client_id,
                         flags.GetRequired("client-id"));
    WUM_RETURN_NOT_OK(wum::net::WriteAll(socket, "HELLO " + client_id + "\n"));
    WUM_ASSIGN_OR_RETURN(const std::string reply, ReadReplyLine(socket));
    if (reply.rfind("OK", 0) != 0) {
      return wum::Status::FailedPrecondition("handshake refused: " + reply);
    }
    // The reply's skip-bytes count is informational: the server does
    // the discarding, so we still send the whole file from byte zero.
    std::cout << "handshake: " << reply << "\n";
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t chunk_bytes,
                       flags.GetUint("chunk-bytes", 64u << 10));
  if (chunk_bytes == 0) {
    return flags.Invalid("--chunk-bytes must be >= 1");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t throttle_ms,
                       flags.GetUint("throttle-ms", 0));
  WUM_ASSIGN_OR_RETURN(const ChaosConfig chaos, ParseChaos(flags));
  std::ifstream log(log_path, std::ios::binary);
  if (!log) {
    return wum::Status::NotFound("cannot open " + log_path);
  }
  // The chaos wrapper owns the descriptor once engaged; `raw` tracks
  // whichever Fd is live so the half-open hold below works either way.
  std::optional<wum::net::ChaosSocket> chaotic;
  const wum::net::Fd* raw = &socket;
  if (chaos.enabled) {
    chaotic.emplace(std::move(socket), chaos.options);
    raw = &chaotic->fd();
  }
  std::vector<char> buffer(static_cast<std::size_t>(chunk_bytes));
  std::uint64_t sent = 0;
  bool reset_injected = false;
  while (log) {
    log.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = log.gcount();
    if (got <= 0) break;
    const std::string_view chunk(buffer.data(),
                                 static_cast<std::size_t>(got));
    const wum::Status write =
        chaotic.has_value() ? chaotic->Send(chunk)
                            : wum::net::WriteAll(*raw, chunk);
    if (!write.ok()) {
      if (chaotic.has_value() && chaotic->stats().resets > 0 &&
          write.IsConnectionReset()) {
        // The schedule killed the connection on purpose; the assertion
        // (server still healthy, partial dead-lettered) lives server-side.
        reset_injected = true;
        break;
      }
      return write;
    }
    sent += static_cast<std::uint64_t>(got);
    if (throttle_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
    }
  }
  if (log.bad()) {
    return wum::Status::IoError("read failed: " + log_path);
  }
  if (chaotic.has_value()) {
    const wum::net::ChaosStats& stats = chaotic->stats();
    std::cout << "chaos: writes=" << stats.writes << " stalls=" << stats.stalls
              << " short_writes=" << stats.short_writes
              << " corruptions=" << stats.corruptions
              << " resets=" << stats.resets << "\n";
  }
  if (reset_injected) {
    std::cout << "chaos: injected reset after " << sent << " bytes of "
              << log_path << "\n";
    return wum::Status::OK();
  }
  std::cout << "sent " << sent << " bytes from " << log_path << "\n";
  if (chaos.half_open_ms > 0 && raw->valid()) {
    std::cout << "holding half-open for " << chaos.half_open_ms << "ms\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(chaos.half_open_ms));
  }
  return wum::Status::OK();
}

wum::Status Run(const wum_tools::Flags& flags) {
  WUM_RETURN_NOT_OK(flags.CheckKnown(
      {"host", "port", "log", "client-id", "chunk-bytes", "throttle-ms",
       "admin", "connect-retries", "chaos-seed", "chaos-trickle",
       "chaos-stall-prob", "chaos-stall-ms", "chaos-short-write-prob",
       "chaos-corrupt-prob", "chaos-reset-prob", "chaos-half-open-ms"}));
  if (!wum::net::NetworkingAvailable()) {
    return wum::Status::Unimplemented(
        "websra_logclient requires a POSIX platform");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t port_value, flags.GetUint("port", 0));
  if (port_value == 0 || port_value > 65535) {
    return flags.Invalid("--port must be in [1, 65535]");
  }
  const std::string host = flags.GetString("host", "127.0.0.1");
  const bool admin = flags.Has("admin");
  const bool data = flags.Has("log");
  if (admin == data) {
    return flags.Invalid(
        "exactly one of --log (data mode) or --admin (admin mode) required");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t retries,
                       flags.GetUint("connect-retries", 50));
  WUM_ASSIGN_OR_RETURN(
      wum::net::Fd socket,
      ConnectWithRetries(host, static_cast<std::uint16_t>(port_value),
                         retries));
  if (admin) {
    WUM_ASSIGN_OR_RETURN(std::string command, flags.GetRequired("admin"));
    return RunAdmin(socket, command);
  }
  WUM_ASSIGN_OR_RETURN(std::string log_path, flags.GetRequired("log"));
  return RunData(std::move(socket), flags, log_path);
}

}  // namespace

int main(int argc, char** argv) {
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv, {"chaos-trickle"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), kUsage);
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, kUsage);
  return 0;
}
