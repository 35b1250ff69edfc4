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

#include "wum/common/result.h"
#include "wum/common/string_util.h"
#include "wum/mine/options.h"

namespace wum_tools {

/// Parsed command line: long flags with values plus boolean switches.
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
      return wum::Status::InvalidArgument("missing required flag --" + name);
    }
    return it->second;
  }

  wum::Result<std::uint64_t> GetUint(const std::string& name,
                                     std::uint64_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return wum::ParseUint64(it->second);
  }

  wum::Result<double> GetDouble(const std::string& name,
                                double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return wum::ParseDouble(it->second);
  }

  /// Flags that were provided but never consumed by the tool (typo
  /// detection). Call after all Get*/Has calls... kept simple: tools
  /// list their known flags explicitly.
  wum::Status CheckKnown(const std::set<std::string>& known) const {
    for (const auto& [name, value] : values_) {
      if (!known.contains(name)) {
        return wum::Status::InvalidArgument("unknown flag --" + name);
      }
    }
    for (const std::string& name : switches_) {
      if (!known.contains(name)) {
        return wum::Status::InvalidArgument("unknown flag --" + name);
      }
    }
    return wum::Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;
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
      return wum::Status::InvalidArgument(
          "--mine-lengths/--mine-window require --mine-topk");
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
  WUM_RETURN_NOT_OK(wum::mine::ValidateMinerOptions(mining));
  return std::optional<wum::mine::MinerOptions>(mining);
}

/// Prints a failed status and converts it to a process exit code.
inline int FailWith(const wum::Status& status, const char* usage) {
  std::cerr << "error: " << status.ToString() << "\n\n" << usage;
  return 2;
}

}  // namespace wum_tools

#endif  // WEBSRA_TOOLS_TOOL_UTIL_H_
