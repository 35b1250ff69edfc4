// websra_sessionize: the data-processing phase of the paper as a command
// line tool — parse a CLF/Combined access log, clean it, identify users,
// and reconstruct sessions with a chosen heuristic.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>

#include "tool_runtime.h"
#include "tool_util.h"
#include "wum/clf/clf_parser.h"
#include "wum/stream/dead_letter.h"
#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/common/table.h"
#include "wum/ingest/driver.h"
#include "wum/mine/path_miner.h"
#include "wum/obs/log.h"
#include "wum/obs/metrics.h"
#include "wum/session/instrumented_sessionizer.h"
#include "wum/session/referrer_heuristic.h"
#include "wum/session/session_io.h"
#include "wum/stream/engine.h"
#include "wum/stream/heuristic_registry.h"
#include "wum/topology/graph_io.h"

namespace {

/// Heuristic names come from the registry, so the usage string cannot
/// drift from what actually dispatches ("referrer" is the documented
/// batch-only special case outside the registry).
std::string Usage() {
  return "usage: websra_sessionize --graph FILE --log FILE --out FILE\n"
         "  [--heuristic " +
         wum::HeuristicRegistry::Default().NamesForUsage() +
         "|referrer]\n"
         "  [--identity ip|ip-ua] [--delta MINUTES=30] [--rho MINUTES=10]\n"
         "  [--keep-robots] [--streaming] [--threads N=4]\n"
         "  [--max-parse-errors N=0] [--metrics-out FILE]\n"
         "  [--log-level debug|info|warn|error|off]\n"
         "  [--format text|binary] [--checkpoint-dir DIR]\n"
         "  [--checkpoint-every-records N=100000] [--resume]\n"
         "  [--mine-topk K [--mine-lengths L=3] [--mine-window N=0]]\n"
         "\n"
         "Reads an access log, applies the standard cleaning chain (GET\n"
         "only, successful status, no embedded resources, no crawlers\n"
         "unless --keep-robots), groups requests per user, reconstructs\n"
         "sessions and writes them as a websra session file. The referrer\n"
         "heuristic needs a Combined-format log.\n"
         "\n"
         "The log is read twice and never held in memory: an accounting\n"
         "pass counts and dead-letters malformed lines and spots crawlers,\n"
         "then a cleaning pass filters each chunk and hands the kept page\n"
         "views straight to the reconstruction.\n"
         "\n"
         "--streaming replays the cleaned log through the sharded\n"
         "StreamEngine (--threads worker shards, hash-partitioned by user\n"
         "identity) instead of the batch reconstruction path, and prints\n"
         "the engine's throughput stats to stderr. Output sessions are\n"
         "identical up to per-user emission order; the referrer heuristic\n"
         "is batch-only.\n"
         "\n"
         "--max-parse-errors tolerates up to N malformed log lines: each\n"
         "one is quarantined to a dead-letter channel (counted in the\n"
         "end-of-run table) instead of aborting the run. The default 0\n"
         "fails fast on the first malformed line.\n"
         "\n"
         "--metrics-out enables the wum::obs observability layer: parser,\n"
         "engine and sessionizer metrics are written to FILE as one JSON\n"
         "snapshot at exit and summarized on stdout. With --checkpoint-dir\n"
         "every checkpoint epoch also holds a metrics.json, so a killed run\n"
         "leaves its last epoch's numbers behind. To watch a long replay\n"
         "live, send it through websra_logclient to websra_serve and scrape\n"
         "the daemon's --http-port (see docs/observability.md).\n"
         "\n"
         "--log-level (default warn) controls the structured key=value\n"
         "diagnostics on stderr.\n"
         "\n"
         "--format selects the session file serialization (text is the\n"
         "line-oriented default; binary is the compact CRC-framed format).\n"
         "Readers auto-detect, so downstream tools accept either.\n"
         "\n"
         "--mine-topk K (streaming only) mines the top-k frequent\n"
         "link-topology-valid paths of lengths 2..--mine-lengths from the\n"
         "live session stream in bounded memory and prints them as JSON on\n"
         "stdout at the end of the run; each shard mines its own sessions\n"
         "and --mine-window N halves a shard's counts every N paths it\n"
         "mined. Miner state rides the checkpoint. See docs/mining.md.\n"
         "\n"
         "--checkpoint-dir enables durable checkpointing (streaming only):\n"
         "sessions append to a journal in DIR and the engine snapshots its\n"
         "state there every --checkpoint-every-records input records. After\n"
         "a crash, rerun the identical command with --resume to continue\n"
         "from the last committed checkpoint; the finished output is\n"
         "identical to an uninterrupted run. See docs/checkpointing.md.\n";
}

using wum_tools::CheckpointConfig;

using wum::ingest::RefConsumer;

/// The cleaning pass: re-reads the log and hands every chunk's kept refs
/// to the consumer.
using CleaningPass = std::function<wum::Status(const RefConsumer&)>;

/// Streaming path: the cleaning pass feeds the sharded engine;
/// sessions are collected (serialized by the engine) and sorted by user
/// key so the output file is deterministic regardless of shard timing.
///
/// With checkpointing, sessions append to a durable binary journal in
/// the checkpoint directory instead of memory; each engine checkpoint
/// records the journal's flushed length as its sink state, and a resume
/// truncates the journal back to that committed length before
/// continuing — sessions emitted after the last checkpoint of a killed
/// run are re-emitted by the replay, never duplicated.
wum::Status RunStreaming(const CleaningPass& clean,
                         const wum::WebGraph& graph,
                         const std::string& heuristic_name,
                         wum::UserIdentity identity,
                         wum::TimeThresholds thresholds, std::size_t threads,
                         wum::obs::MetricRegistry* metrics,
                         const std::optional<CheckpointConfig>& checkpoint,
                         const std::optional<wum::mine::MinerOptions>& mining,
                         std::vector<wum::UserSession>* output) {
  wum::EngineOptions options;
  options.set_num_shards(threads)
      .set_identity(identity)
      .set_thresholds(thresholds)
      .set_num_pages(graph.num_pages())
      .set_metrics(metrics)
      .use_graph(&graph)
      .use_heuristic(heuristic_name);
  if (mining.has_value()) {
    options.set_mining(*mining);
  }

  std::string journal_path;
  std::ofstream journal;
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
      [output, &journal, &journal_path, &checkpoint](
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
        output->push_back(wum::UserSession{user_key, std::move(session)});
        return wum::Status::OK();
      });

  // The engine restores before the journal opens, because the committed
  // journal length lives in the checkpoint's sink state.
  wum::Result<std::unique_ptr<wum::StreamEngine>> created =
      wum::Status::Internal("unreachable");
  if (checkpoint.has_value() && checkpoint->resume) {
    wum::EngineOptions resume_options = options;
    resume_options.resume_from(checkpoint->dir);
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

  if (checkpoint.has_value()) {
    if (engine->resumed()) {
      WUM_ASSIGN_OR_RETURN(std::uint64_t committed,
                           wum::ParseUint64(engine->resumed_sink_state()));
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
      std::cerr << "resumed from checkpoint: skipping "
                << engine->resumed_sink_state()
                << " committed journal bytes\n";
    } else {
      journal.open(journal_path, std::ios::binary | std::ios::trunc);
      if (!journal) {
        return wum::Status::IoError("cannot open " + journal_path);
      }
      journal << wum::SessionsBinaryHeaderLine() << '\n';
    }
  }
  const auto journal_state = [&]() -> wum::Result<std::string> {
    journal.flush();
    if (!journal) {
      return wum::Status::IoError("journal write failed: " + journal_path);
    }
    return std::to_string(static_cast<std::uint64_t>(journal.tellp()));
  };

  // Batched replay through the shared IngestDriver — the same batching
  // and checkpoint-cadence loop websra_serve runs, so checkpoints land
  // at exactly the same record offsets regardless of front end (resume
  // offsets must not depend on batching).
  wum::ingest::IngestOptions ingest_options;
  if (checkpoint.has_value()) {
    ingest_options.checkpoint_dir = checkpoint->dir;
    ingest_options.checkpoint_every_records = checkpoint->every_records;
    ingest_options.sink_state = journal_state;
  }
  WUM_ASSIGN_OR_RETURN(
      wum::ingest::IngestDriver driver,
      wum::ingest::IngestDriver::Create(engine.get(),
                                        std::move(ingest_options)));
  WUM_RETURN_NOT_OK(clean([&driver](std::span<const wum::LogRecordRef> refs) {
    return driver.OfferRefs(refs);
  }));
  WUM_RETURN_NOT_OK(engine->Finish());
  if (engine->mining() != nullptr) {
    std::cout << engine->mining()->PatternsJson() << "\n";
  }
  if (checkpoint.has_value()) {
    journal.flush();
    journal.close();
    if (!journal) {
      return wum::Status::IoError("journal write failed: " + journal_path);
    }
    WUM_ASSIGN_OR_RETURN(*output, wum::ReadSessionsFile(journal_path));
  }
  std::cerr << "engine[" << engine->num_shards()
            << " shards]: " << wum::EngineStatsToString(engine->TotalStats())
            << "\n";
  const std::vector<wum::EngineStats> per_shard = engine->ShardStats();
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    std::cerr << "  shard " << i << ": "
              << wum::EngineStatsToString(per_shard[i]) << "\n";
  }
  std::stable_sort(output->begin(), output->end(),
                   [](const wum::UserSession& a, const wum::UserSession& b) {
                     return a.user_key < b.user_key;
                   });
  return wum::Status::OK();
}

/// Batch path: the cleaning pass feeds a UserPartitioner (and, for the
/// referrer heuristic, per-user referred requests); each user's stream
/// is then reconstructed whole.
wum::Status RunBatch(const CleaningPass& clean, const wum::WebGraph& graph,
                     const std::string& heuristic_name,
                     wum::UserIdentity identity,
                     wum::TimeThresholds thresholds,
                     wum::obs::MetricRegistry* metrics,
                     std::vector<wum::UserSession>* output) {
  const bool referrer = heuristic_name == "referrer";
  wum::UserPartitioner partitioner(graph.num_pages(), identity);
  std::map<std::string, std::vector<wum::ReferredRequest>> referred;
  WUM_RETURN_NOT_OK(clean([&](std::span<const wum::LogRecordRef> chunk) {
    for (const wum::LogRecordRef& ref : chunk) {
      WUM_RETURN_NOT_OK(partitioner.Add(ref));
      if (!referrer) continue;
      const std::optional<std::uint32_t> page = wum::PageFromUrl(ref.url);
      if (!page.has_value()) continue;
      const std::optional<std::uint32_t> from =
          wum::PageFromReferrer(ref.referrer);
      referred[wum::UserKeyFor(ref.client_ip, ref.user_agent, identity)]
          .push_back(wum::ReferredRequest{
              static_cast<wum::PageId>(*page),
              from.has_value() ? static_cast<wum::PageId>(*from)
                               : wum::kInvalidPage,
              ref.timestamp});
    }
    return wum::Status::OK();
  }));
  const wum::PartitionResult partition = std::move(partitioner).Finish();
  std::cout << "identified " << partition.streams.size() << " users ("
            << partition.skipped_non_page_urls << " non-page URLs skipped)\n";

  // Reconstruct.
  const auto emit = [output](const std::string& key,
                             std::vector<wum::Session> sessions) {
    for (wum::Session& session : sessions) {
      output->push_back(wum::UserSession{key, std::move(session)});
    }
  };
  if (referrer) {
    wum::ReferrerSessionizer::Options options;
    options.thresholds = thresholds;
    wum::ReferrerSessionizer heuristic(&graph, options);
    for (auto& [key, stream] : referred) {
      std::stable_sort(stream.begin(), stream.end(),
                       [](const wum::ReferredRequest& a,
                          const wum::ReferredRequest& b) {
                         return a.timestamp < b.timestamp;
                       });
      WUM_ASSIGN_OR_RETURN(std::vector<wum::Session> sessions,
                           heuristic.Reconstruct(stream));
      emit(key, std::move(sessions));
    }
  } else {
    wum::HeuristicContext context;
    context.graph = &graph;
    context.thresholds = thresholds;
    WUM_ASSIGN_OR_RETURN(std::unique_ptr<wum::Sessionizer> inner,
                         wum::HeuristicRegistry::Default().CreateBatch(
                             heuristic_name, context));
    wum::InstrumentedSessionizer heuristic(std::move(inner), metrics);
    for (const wum::UserStream& user : partition.streams) {
      WUM_ASSIGN_OR_RETURN(std::vector<wum::Session> sessions,
                           heuristic.Reconstruct(user.requests));
      emit(user.user_key, std::move(sessions));
    }
  }
  return wum::Status::OK();
}

/// End-of-run accounting table: every log line is either parsed or
/// dead-lettered, and every parsed record either survives cleaning into
/// the session file or was filtered.
void PrintRunSummary(const wum::ClfParser::Stats& parse_stats,
                     const wum::DeadLetterQueue& dead_letters,
                     std::size_t cleaned_records, std::size_t sessions) {
  wum::Table table({"stage", "count"});
  table.AddRow({"log lines seen", std::to_string(parse_stats.lines_seen)});
  table.AddRow({"records parsed", std::to_string(parse_stats.records_parsed)});
  table.AddRow({"malformed lines dead-lettered",
                std::to_string(dead_letters.total_offered())});
  table.AddRow({"records after cleaning", std::to_string(cleaned_records)});
  table.AddRow({"sessions written", std::to_string(sessions)});
  table.Render(&std::cout);
}

wum::Status Run(const wum_tools::Flags& flags) {
  const wum_tools::RuntimeFeatures features{.durability = true,
                                            .always_metrics = false};
  WUM_RETURN_NOT_OK(flags.CheckKnown(wum_tools::ToolRuntime::WithFlags(
      {"graph", "log", "out", "heuristic", "identity", "delta", "rho",
       "keep-robots", "streaming", "threads", "max-parse-errors", "format",
       "mine-topk", "mine-lengths", "mine-window"},
      features)));
  WUM_ASSIGN_OR_RETURN(std::string graph_path, flags.GetRequired("graph"));
  WUM_ASSIGN_OR_RETURN(std::string log_path, flags.GetRequired("log"));
  WUM_ASSIGN_OR_RETURN(std::string out_path, flags.GetRequired("out"));
  WUM_ASSIGN_OR_RETURN(wum::WebGraph graph, wum::ReadGraphFile(graph_path));

  wum::TimeThresholds thresholds;
  WUM_ASSIGN_OR_RETURN(std::uint64_t delta_minutes, flags.GetUint("delta", 30));
  WUM_ASSIGN_OR_RETURN(std::uint64_t rho_minutes, flags.GetUint("rho", 10));
  thresholds.max_session_duration =
      wum::Minutes(static_cast<std::int64_t>(delta_minutes));
  thresholds.max_page_stay = wum::Minutes(static_cast<std::int64_t>(rho_minutes));

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

  // The shared tool runtime: observability (one registry behind the
  // parser, the engine and the sessionizer; log level)
  // plus the parsed durability flags.
  WUM_ASSIGN_OR_RETURN(wum_tools::ToolRuntime runtime,
                       wum_tools::ToolRuntime::Start(flags, features));
  const std::string heuristic_name =
      flags.GetString("heuristic", "smart-sra");
  const bool streaming = flags.Has("streaming");
  if (heuristic_name == "referrer" && streaming) {
    return flags.Invalid(
        "--streaming does not support the referrer heuristic; use the "
        "batch path");
  }
  if (heuristic_name != "referrer" &&
      !wum::HeuristicRegistry::Default().Contains(heuristic_name)) {
    return flags.Invalid("unknown heuristic '" + heuristic_name +
                         "' (expected " +
                         wum::HeuristicRegistry::Default().NamesForUsage() +
                         "|referrer)");
  }
  const std::optional<CheckpointConfig>& checkpoint = runtime.checkpoint();
  if (checkpoint.has_value() && !streaming) {
    return flags.Invalid("--checkpoint-dir requires --streaming");
  }
  wum::obs::MetricRegistry* metrics = runtime.metrics();
  runtime.SetBuildLabel(
      "config", "heuristic=" + heuristic_name + " identity=" + identity_name +
                    (streaming ? " streaming" : " batch"));
  WUM_ASSIGN_OR_RETURN(std::optional<wum::mine::MinerOptions> mining,
                       wum_tools::GetMiningFlags(flags));
  if (mining.has_value() && !streaming) {
    return flags.Invalid("--mine-topk requires --streaming");
  }

  if (!streaming && flags.Has("threads")) {
    return flags.Invalid("--threads requires --streaming");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t threads, flags.GetUint("threads", 4));
  if (threads == 0) {
    return flags.Invalid("--threads must be >= 1");
  }

  // The accounting pass: malformed lines go to the dead-letter channel,
  // and more than --max-parse-errors (default 0) of them abort the run
  // before any engine or output exists. It also spots crawlers; the robot
  // filter joins the cleaning chain unless --keep-robots.
  WUM_ASSIGN_OR_RETURN(std::uint64_t max_parse_errors,
                       flags.GetUint("max-parse-errors", 0));
  wum::ClfParser parser(metrics);
  wum::DeadLetterQueue dead_letters;
  parser.set_reject_handler([&dead_letters](std::uint64_t line_number,
                                            std::string_view raw_line,
                                            const wum::Status& reason) {
    wum::obs::LogWarn("clf.reject")("line", line_number)("error",
                                                         reason.message());
    wum::DeadLetter letter;
    letter.stage = wum::DeadLetter::Stage::kParse;
    letter.reason = reason;
    letter.detail =
        "line " + std::to_string(line_number) + ": " + std::string(raw_line);
    dead_letters.Offer(std::move(letter));
  });
  auto robots = std::make_unique<wum::RobotFilter>();
  WUM_RETURN_NOT_OK(wum::ingest::ParseFile(
      log_path, &parser, [&robots](std::span<const wum::LogRecordRef> chunk) {
        for (const wum::LogRecordRef& ref : chunk) robots->Observe(ref);
        return wum::Status::OK();
      }));
  if (parser.stats().lines_rejected > max_parse_errors) {
    std::string message =
        std::to_string(parser.stats().lines_rejected) +
        " malformed lines exceed --max-parse-errors=" +
        std::to_string(max_parse_errors);
    for (const std::string& sample : parser.stats().sample_errors) {
      message += "\n  " + sample;
    }
    return wum::Status::ParseError(message);
  }
  std::cout << "parsed " << parser.stats().records_parsed << " records, "
            << parser.stats().lines_rejected << " malformed lines\n";

  // The cleaning pass: a plain parser (the accounting is done), the
  // standard chain, and each chunk's kept refs to the one consumer.
  wum::FilterChain chain = wum::FilterChain::Standard();
  if (!flags.Has("keep-robots")) chain.Add(std::move(robots));
  std::size_t cleaned = 0;
  const CleaningPass clean = [&](const RefConsumer& consume) -> wum::Status {
    wum::ClfParser plain;
    std::vector<wum::LogRecordRef> kept;
    WUM_RETURN_NOT_OK(wum::ingest::ParseFile(
        log_path, &plain, [&](std::span<const wum::LogRecordRef> chunk) {
          kept.clear();
          for (const wum::LogRecordRef& ref : chunk) {
            if (chain.Keep(ref)) kept.push_back(ref);
          }
          cleaned += kept.size();
          return consume(kept);
        }));
    std::cout << "cleaning kept " << cleaned << " page views\n";
    return wum::Status::OK();
  };

  // Batch and streaming differ only in what the cleaning pass feeds.
  std::vector<wum::UserSession> output;
  if (streaming) {
    WUM_RETURN_NOT_OK(RunStreaming(clean, graph, heuristic_name, identity,
                                   thresholds,
                                   static_cast<std::size_t>(threads), metrics,
                                   checkpoint, mining, &output));
  } else {
    WUM_RETURN_NOT_OK(RunBatch(clean, graph, heuristic_name, identity,
                               thresholds, metrics, &output));
  }
  WUM_RETURN_NOT_OK(wum::WriteSessionsFile(output, out_path, format));
  std::cout << "wrote " << output.size() << " sessions (" << heuristic_name
            << (streaming ? ", streaming" : "") << ") to " << out_path
            << "\n";
  PrintRunSummary(parser.stats(), dead_letters, cleaned, output.size());
  return runtime.Finish(flags);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage = Usage();
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv,
                              {"keep-robots", "streaming", "resume"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), usage.c_str());
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, *flags, usage.c_str());
  return 0;
}
