// ToolRuntime: the one observability + durability surface shared by the
// websra_* tools. Every tool that takes --metrics-out/--log-level (and,
// when durable, --checkpoint-dir/--checkpoint-every-records/--resume)
// parses and starts them through this runtime, so websra_sessionize,
// websra_simulate and websra_serve present identical flags with
// identical semantics. A finite run reads its metrics once, at exit
// (--metrics-out); the live daemon serves them from its own poll loop
// (websra_serve --http-port).

#ifndef WEBSRA_TOOLS_TOOL_RUNTIME_H_
#define WEBSRA_TOOLS_TOOL_RUNTIME_H_

#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

#include "tool_util.h"
#include "wum/common/result.h"
#include "wum/common/string_util.h"
#include "wum/common/table.h"
#include "wum/obs/log.h"
#include "wum/obs/metrics.h"

// Build identity injected by tools/CMakeLists.txt; the fallbacks keep
// non-CMake builds (clangd, one-off compiles) working.
#ifndef WEBSRA_VERSION
#define WEBSRA_VERSION "unknown"
#endif
#ifndef WEBSRA_GIT_DESCRIBE
#define WEBSRA_GIT_DESCRIBE "unknown"
#endif

namespace wum_tools {

/// Human-readable rollup of a metrics snapshot, rendered with
/// wum::Table — identical across every tool's end-of-run output.
inline void PrintMetricsSummary(const wum::obs::MetricsSnapshot& snapshot) {
  wum::Table table({"metric", "kind", "value"});
  for (const auto& counter : snapshot.counters) {
    table.AddRow({counter.name, "counter", std::to_string(counter.value)});
  }
  for (const auto& gauge : snapshot.gauges) {
    table.AddRow({gauge.name, "gauge", std::to_string(gauge.value)});
  }
  for (const auto& histogram : snapshot.histograms) {
    table.AddRow({histogram.name, "histogram",
                  "count=" + std::to_string(histogram.count) +
                      " mean=" + wum::FormatDouble(histogram.mean(), 1) +
                      "us p50=" + wum::FormatDouble(histogram.p50(), 1) +
                      "us p90=" + wum::FormatDouble(histogram.p90(), 1) +
                      "us p99=" + wum::FormatDouble(histogram.p99(), 1) +
                      "us max=" + wum::FormatDouble(histogram.max, 1) +
                      "us"});
  }
  table.Render(&std::cout);
}

/// Durable checkpointing configuration (--checkpoint-dir and friends),
/// parsed identically for every durable tool.
struct CheckpointConfig {
  std::string dir;
  std::uint64_t every_records = 100000;
  bool resume = false;
};

/// Which optional surfaces a tool opts into.
struct RuntimeFeatures {
  /// Accept --checkpoint-dir/--checkpoint-every-records/--resume.
  bool durability = false;
  /// Keep the metric registry live even without --metrics-out (daemons:
  /// the admin STATS command must always have numbers to report).
  bool always_metrics = false;
};

/// The started runtime: a metric registry the tool wires into its
/// components and the parsed checkpoint configuration. Start() at the
/// top of Run, Finish() at the bottom.
class ToolRuntime {
 public:
  /// The runtime's flag names, for Flags::CheckKnown. Splice into the
  /// tool's own set.
  static std::set<std::string> FlagNames(const RuntimeFeatures& features) {
    std::set<std::string> names = {"metrics-out", "log-level"};
    if (features.durability) {
      names.insert({"checkpoint-dir", "checkpoint-every-records", "resume"});
    }
    return names;
  }

  /// `known` plus the runtime's flags, for CheckKnown.
  static std::set<std::string> WithFlags(std::set<std::string> known,
                                         const RuntimeFeatures& features) {
    std::set<std::string> names = FlagNames(features);
    known.insert(names.begin(), names.end());
    return known;
  }

  /// Applies --log-level, activates the registry (--metrics-out or
  /// always_metrics), and parses the checkpoint flags when the tool is
  /// durable.
  static wum::Result<ToolRuntime> Start(const Flags& flags,
                                        RuntimeFeatures features) {
    // A peer that disappears mid-reply must surface as EPIPE on the
    // write, never as a process-killing SIGPIPE. The socket layer also
    // passes MSG_NOSIGNAL per send, but stdout/stderr pipes (a died
    // `websra_serve | head`) have no such flag — the process-wide
    // disposition is the backstop.
#if defined(__unix__) || defined(__APPLE__)
    std::signal(SIGPIPE, SIG_IGN);
#endif
    ToolRuntime runtime;
    runtime.registry_ = std::make_unique<wum::obs::MetricRegistry>();
    if (flags.Has("log-level")) {
      WUM_ASSIGN_OR_RETURN(std::string name, flags.GetRequired("log-level"));
      wum::Result<wum::obs::LogLevel> level = wum::obs::ParseLogLevel(name);
      WUM_RETURN_NOT_OK(flags.Check(level.status()));
      wum::obs::Logger::Default().set_min_level(*level);
    }
    if (features.always_metrics || flags.Has("metrics-out")) {
      runtime.metrics_ = runtime.registry_.get();
    }
    if (runtime.metrics_ != nullptr) {
      // Process identity + uptime, uniform across every tool:
      // `wum_build_info{...} 1` in the Prometheus exposition, the
      // "infos" section in the JSON export. Tools append run-specific
      // labels (engine config fingerprint) via SetBuildLabel.
      runtime.build_labels_ = {{"version", WEBSRA_VERSION},
                               {"git", WEBSRA_GIT_DESCRIBE}};
      runtime.registry_->SetInfo("build.info", runtime.build_labels_);
      wum::obs::Gauge uptime =
          runtime.registry_->GetGauge("obs.uptime_seconds");
      const double started_us = wum::obs::internal::NowMicros();
      runtime.registry_->AddProbe([uptime, started_us]() mutable {
        const double now_us = wum::obs::internal::NowMicros();
        uptime.Set(now_us > started_us
                       ? static_cast<std::uint64_t>((now_us - started_us) /
                                                    1e6)
                       : 0);
      });
    }
    if (features.durability) {
      if (flags.Has("checkpoint-dir")) {
        CheckpointConfig config;
        WUM_ASSIGN_OR_RETURN(config.dir, flags.GetRequired("checkpoint-dir"));
        WUM_ASSIGN_OR_RETURN(
            config.every_records,
            flags.GetUint("checkpoint-every-records", 100000));
        if (config.every_records == 0) {
          return flags.Invalid("--checkpoint-every-records must be >= 1");
        }
        config.resume = flags.Has("resume");
        runtime.checkpoint_ = std::move(config);
      } else if (flags.Has("checkpoint-every-records") ||
                 flags.Has("resume")) {
        return flags.Invalid(
            "--checkpoint-every-records/--resume require --checkpoint-dir");
      }
    }
    return runtime;
  }

  /// The registry for instrumented components, or null when metrics are
  /// disabled (components then hold disabled handles and skip the
  /// clock). Non-null whenever always_metrics was requested.
  wum::obs::MetricRegistry* metrics() const { return metrics_; }

  /// Parsed --checkpoint-dir configuration; nullopt when absent (or the
  /// tool is not durable).
  const std::optional<CheckpointConfig>& checkpoint() const {
    return checkpoint_;
  }

  /// Adds (or overwrites) one label on the wum_build_info metric —
  /// run-specific identity like the engine config fingerprint, set once
  /// the tool has parsed its own flags. No-op when metrics are off.
  void SetBuildLabel(const std::string& key, const std::string& value) {
    if (metrics_ == nullptr) return;
    for (auto& [existing_key, existing_value] : build_labels_) {
      if (existing_key == key) {
        existing_value = value;
        registry_->SetInfo("build.info", build_labels_);
        return;
      }
    }
    build_labels_.emplace_back(key, value);
    registry_->SetInfo("build.info", build_labels_);
  }

  /// End-of-run counterpart: writes --metrics-out and prints the
  /// summary table whenever metrics were enabled.
  wum::Status Finish(const Flags& flags) {
    if (metrics_ != nullptr) {
      const wum::obs::MetricsSnapshot snapshot = metrics_->Snapshot();
      PrintMetricsSummary(snapshot);
      if (flags.Has("metrics-out")) {
        WUM_ASSIGN_OR_RETURN(std::string path,
                             flags.GetRequired("metrics-out"));
        WUM_RETURN_NOT_OK(wum::obs::WriteMetricsFile(snapshot, path));
        std::cout << "wrote metrics to " << path << "\n";
      }
    }
    return wum::Status::OK();
  }

 private:
  ToolRuntime() = default;

  // Owned registry: a stable address for component wiring while the
  // runtime itself stays movable (Result-friendly).
  std::unique_ptr<wum::obs::MetricRegistry> registry_;
  wum::obs::MetricRegistry* metrics_ = nullptr;
  std::optional<CheckpointConfig> checkpoint_;
  std::vector<std::pair<std::string, std::string>> build_labels_;
};

}  // namespace wum_tools

#endif  // WEBSRA_TOOLS_TOOL_RUNTIME_H_
