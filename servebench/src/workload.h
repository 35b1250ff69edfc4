// The benchmark's three workloads, generated from a seed, and the send
// plan that splits each one over the generator's two data connections.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wum/common/result.h"
#include "wum/session/session.h"
#include "wum/topology/web_graph.h"

namespace servebench {

enum class WorkloadKind { kBulkReplay, kLiveNasaMix, kUserChurn };

/// What a workload sends and how the server under test is configured.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kBulkReplay;
  std::string name;
  /// Open-loop send rate in lines per second; 0 sends as fast as TCP
  /// backpressure allows.
  double rate_lps = 0.0;
  /// Live-daemon configuration: a MetricRegistry on the engine and
  /// server, the HTTP port, default mining, and a GET /metrics plus a
  /// PATTERNS round trip once a second from the generator.
  bool live = false;
  /// Engine checkpoint cadence in records (0 = no checkpoints).
  std::uint64_t checkpoint_every = 0;
};

/// Looks a workload up by name; NotFound for unknown names.
wum::Result<WorkloadSpec> FindWorkload(std::string_view name);

/// One kept page view: a line the engine's cleaning filters keep and
/// whose URL is a canonical page, i.e. what Smart-SRA sees.
struct PageView {
  wum::PageRequest request;
  std::uint32_t global_line = 0;  // position in the whole log
  std::uint32_t conn_line = 0;    // position on its connection
};

/// Bytes and per-line bookkeeping of one data connection.
struct ConnStream {
  std::string text;
  std::vector<std::uint64_t> line_end;     // cumulative byte end per line
  std::vector<std::uint32_t> line_global;  // global line index per line
};

/// A generated workload: the site, the rendered log split over two
/// connections, and the ground facts the output check needs.
struct Input {
  wum::WebGraph graph{0};
  std::uint32_t num_users = 0;
  std::uint64_t num_lines = 0;
  ConnStream conns[2];
  /// Kept page views grouped by user, in timestamp order: user u owns
  /// page_views[user_begin[u], user_begin[u + 1]).
  std::vector<std::uint64_t> user_begin;
  std::vector<PageView> page_views;
  /// The connection each user's lines were routed to.
  std::vector<std::uint8_t> user_conn;
};

/// Generator knobs beyond the seed; the defaults are the benchmark's.
struct GenerateOptions {
  /// Scales the population (1.0 = the documented workload size); the
  /// self-test uses a small fraction.
  double scale = 1.0;
  /// Fault injection: route every other line of one user to the other
  /// connection (breaks the one-user-one-connection rule).
  bool split_one_user = false;
};

wum::Result<Input> Generate(const WorkloadSpec& spec, std::uint64_t seed,
                            const GenerateOptions& options = {});

/// Client address of user `u` ("10.a.b.c", invertible) and its inverse;
/// -1 when `ip` is not of that form.
std::string UserIp(std::uint32_t user);
std::int64_t UserFromIp(std::string_view ip);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
