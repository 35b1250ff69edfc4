// The load generator: one thread, two data connections, plus the admin
// connection (PATTERNS, QUIESCE) and short-lived HTTP scrapes. It either
// sends at a fixed rate (open loop: line i is due at start + i / rate,
// whatever the server does) or as fast as TCP backpressure allows.

#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "workload.h"

namespace servebench {

struct GenConfig {
  std::uint16_t data_port = 0;
  std::uint16_t admin_port = 0;
  std::uint16_t http_port = 0;  // 0 = no HTTP scrapes
  /// Lines per second; 0 = as fast as the sockets accept bytes.
  double rate_lps = 0.0;
  /// Send PATTERNS on the admin port and GET /metrics on the HTTP port
  /// once a second while data flows.
  bool scrape = false;
  SpanRecorder* spans = nullptr;
};

/// Completion time of one send() call: bytes [.., end) of the
/// connection's stream had been handed to the kernel at t_ns.
struct WriteMark {
  std::uint64_t end = 0;
  std::int64_t t_ns = 0;
};

struct GenResult {
  bool ok = false;
  std::string error;
  std::int64_t start_ns = 0;          // first byte due / sent
  std::int64_t all_sent_ns = 0;       // last data byte handed to the kernel
  std::int64_t quiesce_sent_ns = 0;
  std::int64_t quiesce_reply_ns = 0;  // end of the measured window
  std::uint64_t bytes_sent = 0;
  std::uint64_t lines_sent = 0;
  std::vector<WriteMark> writes[2];
  /// Time spent waiting for a full data socket to drain, and each stall
  /// (consecutive waits until a send makes progress again).
  std::int64_t send_wait_ns = 0;
  std::vector<double> stall_ms;
  /// Generator thread CPU over the run.
  std::int64_t cpu_ns = 0;
  std::vector<double> patterns_ms;
  std::vector<double> scrape_ms;
  std::vector<double> scrape_bytes;
};

/// Connects, sends both connection streams per `config`, half-closes the
/// data connections, waits for outstanding scrapes, then sends QUIESCE
/// and waits for its reply.
GenResult RunGenerator(const Input& input, const GenConfig& config);

/// Send time of connection-local line `line` (completion of the write
/// that carried its last byte).
std::int64_t LineSentNs(const Input& input, const GenResult& gen, int conn,
                        std::uint32_t line);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
