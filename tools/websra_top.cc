// websra_top: a live terminal dashboard over the observability endpoint
// of a running websra daemon. Polls GET /metrics (Prometheus text) from
// `websra_serve --http-port`, or reads the same exposition from a
// snapshot file, and renders per-shard
// throughput, ingest->emit latency, watermark lag and queue depths.
//
// `--once --format json` emits one deterministic machine-readable
// snapshot (fixed key order) for CI assertions; `--lint FILE` runs the
// exposition validator and exits.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "tool_util.h"
#include "wum/common/result.h"
#include "wum/common/string_util.h"
#include "wum/common/table.h"
#include "wum/net/http.h"
#include "wum/obs/exposition.h"
#include "wum/obs/metrics.h"

namespace {

std::string Usage() {
  return "usage: websra_top --port N [--host ADDR=127.0.0.1]\n"
         "       websra_top --file EXPOSITION\n"
         "       websra_top --lint EXPOSITION\n"
         "  [--interval-ms N=2000] [--once] [--format text|json]\n"
         "\n"
         "Polls the /metrics endpoint `websra_serve --http-port` exposes\n"
         "(see docs/observability.md) and renders a\n"
         "refreshing dashboard: per-shard records/sec, p99 ingest->emit\n"
         "latency, event-time watermarks and lag, queue depths, dead\n"
         "letters, connection and mining stats. Rates come from\n"
         "successive polls, so the first frame shows '-'.\n"
         "\n"
         "--file renders one frame from exposition text on disk (a\n"
         "scrape saved with curl, or a snapshot) instead of polling.\n"
         "--once prints a single frame and exits; with --format json the\n"
         "frame is one JSON object with a fixed key order, for scripts\n"
         "and CI. --lint validates exposition text (# TYPE coverage,\n"
         "name charset, cumulative histogram buckets) and exits 0/1.\n";
}

/// One parsed exposition: unlabeled samples by metric name, plus the
/// build-info labels (the one labeled family the dashboard reads).
struct Frame {
  std::map<std::string, double> samples;
  std::vector<std::pair<std::string, std::string>> build_labels;
  std::chrono::steady_clock::time_point at;
};

/// Extracts `key="value"` pairs from a Prometheus label block; good
/// enough for labels this module's exporter writes (no escaped quotes in
/// build-info values worth preserving beyond unescaping).
std::vector<std::pair<std::string, std::string>> ParseLabels(
    std::string_view block) {
  std::vector<std::pair<std::string, std::string>> labels;
  std::size_t pos = 0;
  while (pos < block.size()) {
    const std::size_t eq = block.find('=', pos);
    if (eq == std::string_view::npos) break;
    std::string key(block.substr(pos, eq - pos));
    while (!key.empty() && (key.front() == ',' || key.front() == ' ')) {
      key.erase(key.begin());
    }
    std::size_t value_start = eq + 1;
    if (value_start >= block.size() || block[value_start] != '"') break;
    ++value_start;
    std::string value;
    std::size_t i = value_start;
    for (; i < block.size() && block[i] != '"'; ++i) {
      if (block[i] == '\\' && i + 1 < block.size()) {
        ++i;
        value += block[i] == 'n' ? '\n' : block[i];
      } else {
        value += block[i];
      }
    }
    labels.emplace_back(std::move(key), std::move(value));
    pos = i + 1;
  }
  return labels;
}

/// Parses exposition text into a Frame. Labeled samples other than
/// wum_build_info (histogram buckets) are skipped: the dashboard reads
/// the exporter's _p50/_p90/_p99 gauges instead.
Frame ParseExposition(std::string_view text) {
  Frame frame;
  frame.at = std::chrono::steady_clock::now();
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    if (brace != std::string_view::npos && brace < space) {
      const std::size_t close = line.find('}', brace);
      if (close == std::string_view::npos) continue;
      if (line.substr(0, brace) == "wum_build_info") {
        frame.build_labels = ParseLabels(line.substr(brace + 1,
                                                     close - brace - 1));
      }
      continue;
    }
    const std::string name(line.substr(0, space));
    const std::string value(line.substr(space + 1));
    frame.samples[name] = std::strtod(value.c_str(), nullptr);
  }
  return frame;
}

double Sample(const Frame& frame, const std::string& name) {
  const auto it = frame.samples.find(name);
  return it == frame.samples.end() ? 0.0 : it->second;
}

bool HasSample(const Frame& frame, const std::string& name) {
  return frame.samples.find(name) != frame.samples.end();
}

std::string ShardMetric(std::size_t shard, const char* suffix) {
  return "wum_engine_shard" + std::to_string(shard) + "_" + suffix;
}

std::size_t CountShards(const Frame& frame) {
  std::size_t shards = 0;
  while (HasSample(frame, ShardMetric(shards, "records_in"))) ++shards;
  return shards;
}

/// Sum of one per-shard metric across every shard (kBlock stall time,
/// shed totals).
double ShardSum(const Frame& frame, const char* suffix) {
  double total = 0.0;
  const std::size_t shards = CountShards(frame);
  for (std::size_t i = 0; i < shards; ++i) {
    total += Sample(frame, ShardMetric(i, suffix));
  }
  return total;
}

/// Records/sec between two polls of one counter; negative on restart
/// (counter reset) is clamped to 0. nullopt without a prior frame.
std::optional<double> Rate(const Frame& now, const Frame* prev,
                           const std::string& name) {
  if (prev == nullptr) return std::nullopt;
  const double seconds =
      std::chrono::duration<double>(now.at - prev->at).count();
  if (seconds <= 0.0) return std::nullopt;
  const double delta = Sample(now, name) - Sample(*prev, name);
  return delta < 0.0 ? 0.0 : delta / seconds;
}

std::string FormatRate(const std::optional<double>& rate) {
  return rate.has_value() ? wum::FormatDouble(*rate, 1) : "-";
}

void RenderText(const Frame& frame, const Frame* prev, bool clear_screen,
                std::ostream* out) {
  if (clear_screen) *out << "\x1b[2J\x1b[H";
  *out << "websra_top";
  for (const auto& [key, value] : frame.build_labels) {
    *out << "  " << key << "=" << value;
  }
  *out << "\n";
  *out << "uptime " << Sample(frame, "wum_obs_uptime_seconds")
       << "s  watermark lag "
       << Sample(frame, "wum_engine_watermark_lag_seconds") << "s  skew "
       << Sample(frame, "wum_engine_watermark_skew_seconds") << "s\n";

  const std::size_t shards = CountShards(frame);
  wum::Table table({"shard", "records", "rec/s", "sessions", "p99 lat us",
                    "watermark", "queue", "dead", "shed"});
  for (std::size_t i = 0; i < shards; ++i) {
    table.AddRow(
        {std::to_string(i),
         std::to_string(
             static_cast<std::uint64_t>(Sample(frame,
                                               ShardMetric(i, "records_in")))),
         FormatRate(Rate(frame, prev, ShardMetric(i, "records_in"))),
         std::to_string(static_cast<std::uint64_t>(
             Sample(frame, ShardMetric(i, "sessions_emitted")))),
         wum::FormatDouble(
             Sample(frame, ShardMetric(i, "ingest_to_emit_latency_us_p99")),
             1),
         std::to_string(static_cast<std::uint64_t>(
             Sample(frame, ShardMetric(i, "watermark_seconds")))),
         std::to_string(static_cast<std::uint64_t>(
             Sample(frame, ShardMetric(i, "queue_depth")))),
         std::to_string(static_cast<std::uint64_t>(
             Sample(frame, ShardMetric(i, "dead_letter")))),
         std::to_string(
             static_cast<std::uint64_t>(Sample(frame,
                                               ShardMetric(i, "shed"))))});
  }
  table.Render(out);

  *out << "net: " << Sample(frame, "wum_net_conn_active") << " active conns, "
       << Sample(frame, "wum_net_bytes_read") << " bytes read ("
       << FormatRate(Rate(frame, prev, "wum_net_bytes_read")) << "/s), "
       << Sample(frame, "wum_net_http_requests") << " scrapes, pause "
       << Sample(frame, "wum_net_conn_pause_time_ms") << "ms, blocked "
       << ShardSum(frame, "blocked_wait_us") << "us\n";
  if (HasSample(frame, "wum_mining_sessions")) {
    *out << "mining: " << Sample(frame, "wum_mining_sessions")
         << " sessions, " << Sample(frame, "wum_mining_paths") << " paths, "
         << Sample(frame, "wum_mining_tracked") << " tracked\n";
  }
  out->flush();
}

/// The --format json frame: one object, fixed key order, numbers only
/// (no timing-dependent rates), so CI can assert on stable structure.
void RenderJson(const Frame& frame, std::ostream* out) {
  std::ostringstream json;
  json << "{\"build\":{";
  for (std::size_t i = 0; i < frame.build_labels.size(); ++i) {
    if (i > 0) json << ",";
    json << "\"" << frame.build_labels[i].first << "\":\""
         << wum::obs::internal::EscapeJson(frame.build_labels[i].second)
         << "\"";
  }
  json << "},\"uptime_seconds\":"
       << Sample(frame, "wum_obs_uptime_seconds")
       << ",\"watermark_lag_seconds\":"
       << Sample(frame, "wum_engine_watermark_lag_seconds")
       << ",\"watermark_skew_seconds\":"
       << Sample(frame, "wum_engine_watermark_skew_seconds")
       << ",\"shards\":[";
  const std::size_t shards = CountShards(frame);
  for (std::size_t i = 0; i < shards; ++i) {
    if (i > 0) json << ",";
    json << "{\"index\":" << i << ",\"records_in\":"
         << Sample(frame, ShardMetric(i, "records_in"))
         << ",\"sessions_emitted\":"
         << Sample(frame, ShardMetric(i, "sessions_emitted"))
         << ",\"p99_ingest_to_emit_us\":"
         << Sample(frame, ShardMetric(i, "ingest_to_emit_latency_us_p99"))
         << ",\"watermark_seconds\":"
         << Sample(frame, ShardMetric(i, "watermark_seconds"))
         << ",\"queue_depth\":"
         << Sample(frame, ShardMetric(i, "queue_depth"))
         << ",\"dead_letters\":"
         << Sample(frame, ShardMetric(i, "dead_letter")) << ",\"shed\":"
         << Sample(frame, ShardMetric(i, "shed")) << "}";
  }
  json << "],\"net\":{\"active_connections\":"
       << Sample(frame, "wum_net_conn_active") << ",\"bytes_read\":"
       << Sample(frame, "wum_net_bytes_read") << ",\"http_requests\":"
       << Sample(frame, "wum_net_http_requests") << ",\"pause_time_ms\":"
       << Sample(frame, "wum_net_conn_pause_time_ms")
       << ",\"blocked_wait_us\":" << ShardSum(frame, "blocked_wait_us")
       << "},\"mining\":{\"sessions\":"
       << Sample(frame, "wum_mining_sessions") << ",\"paths\":"
       << Sample(frame, "wum_mining_paths") << ",\"tracked\":"
       << Sample(frame, "wum_mining_tracked") << "}}";
  *out << json.str() << "\n";
  out->flush();
}

wum::Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return wum::Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

wum::Status Run(const wum_tools::Flags& flags) {
  WUM_RETURN_NOT_OK(flags.CheckKnown({"host", "port", "file", "lint",
                                      "interval-ms", "once", "format"}));
  if (flags.Has("lint")) {
    WUM_ASSIGN_OR_RETURN(std::string path, flags.GetRequired("lint"));
    WUM_ASSIGN_OR_RETURN(std::string text, ReadFileText(path));
    WUM_RETURN_NOT_OK(wum::obs::LintExposition(text));
    std::cout << path << ": exposition OK\n";
    return wum::Status::OK();
  }

  const std::string format = flags.GetString("format", "text");
  if (format != "text" && format != "json") {
    return flags.Invalid("unknown format '" + format + "'");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t interval_ms,
                       flags.GetUint("interval-ms", 2000));
  if (interval_ms == 0) {
    return flags.Invalid("--interval-ms must be >= 1");
  }
  const bool once = flags.Has("once") || flags.Has("file");
  if (format == "json" && !once) {
    return flags.Invalid("--format json requires --once");
  }

  const auto fetch = [&flags]() -> wum::Result<std::string> {
    if (flags.Has("file")) {
      WUM_ASSIGN_OR_RETURN(std::string path, flags.GetRequired("file"));
      return ReadFileText(path);
    }
    WUM_ASSIGN_OR_RETURN(std::uint64_t port, flags.GetUint("port", 0));
    if (port == 0 || port > 65535) {
      return flags.Invalid("--port (1..65535) or --file is required");
    }
    return wum::net::HttpGet(flags.GetString("host", "127.0.0.1"),
                             static_cast<std::uint16_t>(port), "/metrics");
  };

  std::optional<Frame> previous;
  while (true) {
    WUM_ASSIGN_OR_RETURN(std::string text, fetch());
    const Frame frame = ParseExposition(text);
    if (format == "json") {
      RenderJson(frame, &std::cout);
    } else {
      RenderText(frame, previous.has_value() ? &*previous : nullptr, !once,
                 &std::cout);
    }
    if (once) return wum::Status::OK();
    previous = frame;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage = Usage();
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv, {"once"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), usage.c_str());
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, usage.c_str());
  return 0;
}
