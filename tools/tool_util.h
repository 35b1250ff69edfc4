// Shared plumbing for the websra_* command line tools: a minimal
// "--flag value" / "--switch" parser with typed accessors. The shared
// observability/durability flag surface lives in tool_runtime.h
// (ToolRuntime).

#ifndef WEBSRA_TOOLS_TOOL_UTIL_H_
#define WEBSRA_TOOLS_TOOL_UTIL_H_

#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "wum/common/result.h"
#include "wum/common/string_util.h"
#include "wum/mine/options.h"

namespace wum_tools {

/// Parsed command line: long flags with values plus boolean switches.
/// A failed accessor, Invalid or Check marks the run as a command-line
/// error (usage_error), which is what makes FailWith print the usage.
class Flags {
 public:
  /// `switches` names the flags that take no value.
  static wum::Result<Flags> Parse(int argc, char** argv,
                                  const std::set<std::string>& switches) {
    Flags flags;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
        return wum::Status::InvalidArgument("unexpected argument '" + arg +
                                            "'");
      }
      std::string name = arg.substr(2);
      if (switches.contains(name)) {
        flags.switches_.insert(name);
        continue;
      }
      if (i + 1 >= argc) {
        return wum::Status::InvalidArgument("missing value for --" + name);
      }
      flags.values_[name] = argv[++i];
    }
    return flags;
  }

  bool Has(const std::string& name) const {
    return switches_.contains(name) || values_.contains(name);
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  wum::Result<std::string> GetRequired(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      return Invalid("missing required flag --" + name);
    }
    return it->second;
  }

  wum::Result<std::uint64_t> GetUint(const std::string& name,
                                     std::uint64_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    wum::Result<std::uint64_t> value = wum::ParseUint64(it->second);
    if (!value.ok()) return Check(value.status());
    return value;
  }

  wum::Result<double> GetDouble(const std::string& name,
                                double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    wum::Result<double> value = wum::ParseDouble(it->second);
    if (!value.ok()) return Check(value.status());
    return value;
  }

  /// An invalid value for a flag the tool checks itself: a command-line
  /// error with `message`.
  wum::Status Invalid(std::string message) const {
    return Check(wum::Status::InvalidArgument(std::move(message)));
  }

  /// Passes `status` through; a failure is a command-line error. For
  /// option validators run over flag values.
  wum::Status Check(wum::Status status) const {
    if (!status.ok()) usage_error_ = true;
    return status;
  }

  /// True once the tool met a command-line error: an unknown or
  /// malformed flag, a missing required flag, or an invalid flag value.
  bool usage_error() const { return usage_error_; }

  /// Flags that were provided but never consumed by the tool (typo
  /// detection). Call after all Get*/Has calls... kept simple: tools
  /// list their known flags explicitly.
  wum::Status CheckKnown(const std::set<std::string>& known) const {
    for (const auto& [name, value] : values_) {
      if (!known.contains(name)) return Invalid("unknown flag --" + name);
    }
    for (const std::string& name : switches_) {
      if (!known.contains(name)) return Invalid("unknown flag --" + name);
    }
    return wum::Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;
  mutable bool usage_error_ = false;
};

/// Shared "--mine-*" flag surface for the streaming tools. Mining is
/// off unless --mine-topk is given; --mine-lengths L tracks paths of
/// lengths 2..L (default 3) and --mine-window N decays each shard's
/// counts every N paths it mined (default 0 = cumulative). Usage text:
/// "[--mine-topk K [--mine-lengths L=3] [--mine-window N=0]]".
inline wum::Result<std::optional<wum::mine::MinerOptions>> GetMiningFlags(
    const Flags& flags) {
  if (!flags.Has("mine-topk")) {
    if (flags.Has("mine-lengths") || flags.Has("mine-window")) {
      return flags.Invalid("--mine-lengths/--mine-window require --mine-topk");
    }
    return std::optional<wum::mine::MinerOptions>();
  }
  wum::mine::MinerOptions mining;
  WUM_ASSIGN_OR_RETURN(std::uint64_t top_k, flags.GetUint("mine-topk", 0));
  WUM_ASSIGN_OR_RETURN(std::uint64_t max_length,
                       flags.GetUint("mine-lengths", mining.max_length));
  WUM_ASSIGN_OR_RETURN(std::uint64_t window, flags.GetUint("mine-window", 0));
  mining.top_k = static_cast<std::size_t>(top_k);
  mining.max_length = static_cast<std::size_t>(max_length);
  mining.window_paths = static_cast<std::uint64_t>(window);
  WUM_RETURN_NOT_OK(flags.Check(wum::mine::ValidateMinerOptions(mining)));
  return std::optional<wum::mine::MinerOptions>(mining);
}

/// Prints a failed status and converts it to a process exit code. The
/// usage text follows it only when `usage` is non-null.
inline int FailWith(const wum::Status& status, const char* usage) {
  std::cerr << "error: " << status.ToString() << "\n";
  if (usage != nullptr) std::cerr << "\n" << usage;
  return 2;
}

/// FailWith for the status a tool's Run returned: the usage text follows
/// a command-line error (see Flags::usage_error), while a failure while
/// running — I/O, a refused --resume, an engine error — prints the one
/// error line.
inline int FailWith(const wum::Status& status, const Flags& flags,
                    const char* usage) {
  return FailWith(status, flags.usage_error() ? usage : nullptr);
}

}  // namespace wum_tools

#endif  // WEBSRA_TOOLS_TOOL_UTIL_H_
