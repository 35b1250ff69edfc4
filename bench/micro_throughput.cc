// google-benchmark microbenches: throughput of every pipeline stage —
// CLF formatting/parsing, each sessionizer, the streaming pipeline,
// topology generation, capture matching and mining.
//
// Set WUM_METRICS_OUT=<path> to dump the wum::obs registry populated by
// the metrics-enabled benches as a JSON snapshot after the run (CI
// uploads it as a workflow artifact).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>

#include "wum/clf/clf_parser.h"
#include "wum/clf/clf_writer.h"
#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/mine/options.h"
#include "wum/mining/apriori_all.h"
#include "wum/obs/metrics.h"
#include "wum/stream/engine.h"
#include "wum/session/navigation_heuristic.h"
#include "wum/session/smart_sra.h"
#include "wum/session/time_heuristics.h"
#include "wum/simulator/workload.h"
#include "wum/stream/incremental_sessionizer.h"
#include "wum/topology/site_generator.h"

namespace wum {

/// Registry shared by the metrics-enabled benches; dumped by main when
/// WUM_METRICS_OUT is set. Counters accumulate across iterations, so the
/// snapshot reflects the whole benchmark run.
obs::MetricRegistry& BenchMetricsRegistry() {
  static obs::MetricRegistry* const registry = new obs::MetricRegistry();
  return *registry;
}

namespace {

// Shared fixture state, built once.
struct Fixture {
  WebGraph graph{0};
  Workload workload;
  std::vector<LogRecord> log;
  std::vector<LogRecordRef> log_refs;  // views into `log`, same order
  std::vector<std::string> log_lines;
  std::string log_text;  // log_lines joined with '\n' (chunk-parse input)
  std::vector<std::vector<PageRequest>> streams;  // per IP

  static const Fixture& Get() {
    static const Fixture* const fixture = [] {
      auto* f = new Fixture();
      Rng site_rng(99);
      SiteGeneratorOptions site;  // Table 5 defaults
      f->graph = *GenerateUniformSite(site, &site_rng);
      WorkloadOptions options;
      options.num_agents = 2000;
      Rng rng(1234);
      f->workload =
          *SimulateWorkload(f->graph, AgentProfile(), options, &rng);
      f->log = CollectServerLog(f->workload.ToAgentRequests());
      f->log_refs.reserve(f->log.size());
      f->log_lines.reserve(f->log.size());
      for (const LogRecord& record : f->log) {
        f->log_refs.push_back(ViewOf(record));
        f->log_lines.push_back(FormatClfLine(record));
      }
      for (const std::string& line : f->log_lines) {
        f->log_text += line;
        f->log_text += '\n';
      }
      for (const AgentRun& agent : f->workload.agents) {
        f->streams.push_back(agent.trace.server_requests);
      }
      return f;
    }();
    return *fixture;
  }
};

void BM_ClfFormat(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FormatClfLine(fixture.log[i++ % fixture.log.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClfFormat);

void BM_ClfParse(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ParseClfLine(fixture.log_lines[i++ % fixture.log_lines.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClfParse);

// Zero-copy chunk parsing: the whole fixture log in one ParseChunk call
// per iteration, records landing as LogRecordRef views (no per-field
// allocation). The spread over BM_ClfParse is what the owned-record
// Materialize step costs on the line-at-a-time path.
void BM_ClfParseChunk(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  std::size_t records = 0;
  std::vector<LogRecordRef> parsed;
  for (auto _ : state) {
    parsed.clear();
    ClfParser parser;
    if (!parser.ParseChunk(fixture.log_text, &parsed).ok()) {
      state.SkipWithError("parse failed");
      break;
    }
    benchmark::DoNotOptimize(parsed.data());
    records += parsed.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ClfParseChunk)->Unit(benchmark::kMillisecond);

// The fixture log cut into the 64 KiB line-aligned chunks a socket
// read hands the serve path.
std::vector<std::string_view> ServeChunks(const Fixture& fixture) {
  constexpr std::size_t kChunkBytes = 64 * 1024;
  std::vector<std::string_view> chunks;
  for (std::string_view rest = fixture.log_text; !rest.empty();) {
    std::size_t cut = std::min(kChunkBytes, rest.size());
    if (cut < rest.size()) cut = rest.rfind('\n', cut - 1) + 1;
    chunks.push_back(rest.substr(0, cut));
    rest.remove_prefix(cut);
  }
  return chunks;
}

// The serve path's first stage, the scan thread's work: ClfParser::Scan
// over each chunk into a reused ref vector and reject list.
void BM_ClfScan(benchmark::State& state) {
  const std::vector<std::string_view> chunks = ServeChunks(Fixture::Get());
  std::vector<LogRecordRef> refs;
  ClfParser::ChunkScan scan;
  std::size_t records = 0;
  for (auto _ : state) {
    for (const std::string_view chunk : chunks) {
      refs.clear();
      ClfParser::Scan(chunk, &refs, &scan);
      benchmark::DoNotOptimize(refs.data());
      records += refs.size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ClfScan)->Unit(benchmark::kMillisecond);

// The serve path's second stage, the poll thread's work once a chunk is
// scanned, as StreamEngine::OfferBatch does it: the commit on the
// connection's parser, then per record the user hash, the standard
// cleaning chain (method + status + extension) and the resolve into one
// of two shards' staging batches, cleared per chunk in place of the
// queue hand-off. The chunks are scanned once, outside the timing.
void BM_ProducerOffer(benchmark::State& state) {
  const std::vector<std::string_view> chunks = ServeChunks(Fixture::Get());
  std::vector<std::vector<LogRecordRef>> refs(chunks.size());
  std::vector<ClfParser::ChunkScan> scans(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    ClfParser::Scan(chunks[i], &refs[i], &scans[i]);
  }
  FilterChain filters = FilterChain::Standard();
  ShardBatch staging[2];
  std::size_t records = 0;
  for (auto _ : state) {
    ClfParser parser;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      parser.Commit(scans[i]);
      for (const LogRecordRef& ref : refs[i]) {
        const std::uint64_t hash =
            UserHashFor(ref.client_ip, ref.user_agent, UserIdentity::kClientIp);
        if (!filters.Keep(ref)) continue;
        staging[hash % 2].Append(ref, UserIdentity::kClientIp, hash);
      }
      benchmark::DoNotOptimize(staging[0].records.data());
      benchmark::DoNotOptimize(staging[1].records.data());
      staging[0].clear();
      staging[1].clear();
      records += refs[i].size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ProducerOffer)->Unit(benchmark::kMillisecond);

template <typename MakeSessionizer>
void SessionizerLoop(benchmark::State& state, MakeSessionizer make) {
  const Fixture& fixture = Fixture::Get();
  auto sessionizer = make(fixture);
  std::size_t requests = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& stream = fixture.streams[i++ % fixture.streams.size()];
    requests += stream.size();
    benchmark::DoNotOptimize(sessionizer->Reconstruct(stream));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}

void BM_SessionizeDuration(benchmark::State& state) {
  SessionizerLoop(state, [](const Fixture&) {
    return std::make_unique<SessionDurationSessionizer>();
  });
}
BENCHMARK(BM_SessionizeDuration);

void BM_SessionizePageStay(benchmark::State& state) {
  SessionizerLoop(state, [](const Fixture&) {
    return std::make_unique<PageStaySessionizer>();
  });
}
BENCHMARK(BM_SessionizePageStay);

void BM_SessionizeNavigation(benchmark::State& state) {
  SessionizerLoop(state, [](const Fixture& fixture) {
    return std::make_unique<NavigationSessionizer>(&fixture.graph);
  });
}
BENCHMARK(BM_SessionizeNavigation);

void BM_SessionizeSmartSra(benchmark::State& state) {
  SessionizerLoop(state, [](const Fixture& fixture) {
    return std::make_unique<SmartSra>(&fixture.graph);
  });
}
BENCHMARK(BM_SessionizeSmartSra);

// Batch granularity for the streaming replays below: one resolve pass
// and one queue hand-off per shard per 2048 records, the intended
// production shape of the zero-copy ingest path.
constexpr std::size_t kOfferBatchSize = 2048;

// Single-thread streaming sessionization: the SessionizeSink an engine
// shard runs, fed on the caller's thread with no queue in between. Each
// kOfferBatchSize slice of the log is resolved into a ShardBatch the way
// OfferBatch does, so the loop measures resolve + sessionize.
void BM_StreamingPipelineEndToEnd(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const std::span<const LogRecordRef> refs(fixture.log_refs);
  std::size_t records = 0;
  for (auto _ : state) {
    CallbackSessionSink sink(
        [](const std::string&, Session) { return Status::OK(); });
    RuleSessionizeSink sessionize(
        SmartSraRule(&fixture.graph, SmartSra::Options()), &sink,
        fixture.graph.num_pages());
    ShardBatch batch;
    for (std::size_t i = 0; i < refs.size(); i += kOfferBatchSize) {
      batch.clear();
      for (const LogRecordRef& ref :
           refs.subspan(i, std::min(kOfferBatchSize, refs.size() - i))) {
        batch.Append(ref, UserIdentity::kClientIp);
      }
      for (const ShardRecord& record : batch.records) {
        if (!sessionize.Accept(batch.KeyOf(record), record).ok()) {
          state.SkipWithError("accept failed");
        }
      }
    }
    if (!sessionize.Finish().ok()) state.SkipWithError("finish failed");
    records += refs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_StreamingPipelineEndToEnd)->Unit(benchmark::kMillisecond);

bool OfferAllBatched(StreamEngine* engine,
                     std::span<const LogRecordRef> refs) {
  for (std::size_t i = 0; i < refs.size(); i += kOfferBatchSize) {
    const std::size_t n = std::min(kOfferBatchSize, refs.size() - i);
    if (!engine->OfferBatch(refs.subspan(i, n)).ok()) return false;
  }
  return true;
}

// Engine scaling trajectory: the 2000-agent fixture replayed through the
// sharded StreamEngine at 1/2/4/8 shards (incremental Smart-SRA per
// user) via OfferBatch. items/s is the streaming sessionization
// throughput; on a multi-core host the 4-shard run should beat the
// single shard by >= 2x. UseRealTime: wall clock is the scaling metric,
// not the ingest thread's CPU time.
void StreamEngineShardedLoop(benchmark::State& state,
                             obs::MetricRegistry* metrics,
                             bool with_mining = false) {
  const Fixture& fixture = Fixture::Get();
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  std::size_t records = 0;
  for (auto _ : state) {
    CallbackSessionSink sink(
        [](const std::string&, Session) { return Status::OK(); });
    EngineOptions options;
    options.set_num_shards(shards)
        .set_queue_capacity(4096)
        .set_metrics(metrics)
        .use_smart_sra(&fixture.graph);
    if (with_mining) options.set_mining(mine::MinerOptions{});
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(std::move(options), &sink);
    if (!engine.ok()) {
      state.SkipWithError("create failed");
      break;
    }
    if (!OfferAllBatched(engine->get(), fixture.log_refs)) {
      state.SkipWithError("offer failed");
      break;
    }
    if (!(*engine)->Finish().ok()) state.SkipWithError("finish failed");
    records += fixture.log.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}

void BM_StreamEngineSharded(benchmark::State& state) {
  StreamEngineShardedLoop(state, nullptr);
}
BENCHMARK(BM_StreamEngineSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same workload with the wum::obs registry attached: the spread against
// BM_StreamEngineSharded is the live cost of metrics (counter mirrors
// plus drain/sessionize latency timers); the null-registry runs above
// measure the disabled mode, which must stay within ~2% of the seed.
void BM_StreamEngineShardedMetrics(benchmark::State& state) {
  StreamEngineShardedLoop(state, &BenchMetricsRegistry());
}
BENCHMARK(BM_StreamEngineShardedMetrics)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same workload with mining at default options (top-10, lengths 2..3,
// derived capacity): the spread against BM_StreamEngineSharded is the
// live cost of online path mining — one page-id copy per session and
// the SpaceSaving offers, run by each shard's draining thread into its
// own miner after each run's delivery, outside the emit lock, so the
// cost spreads across shards.
// The CI gate holds this arm to >= 0.92x of its committed baseline.
void BM_StreamEngineShardedMining(benchmark::State& state) {
  StreamEngineShardedLoop(state, nullptr, /*with_mining=*/true);
}
BENCHMARK(BM_StreamEngineShardedMining)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end latency tracking cost: with a registry attached the
// threaded driver stamps every batch at accept (one clock read on the
// producer side), each shard reads the clock once per delivered run of
// sessions to feed the ingest_to_emit_latency_us histogram, and the
// sessionizer
// maintains the per-shard event-time watermark. The spread against
// BM_StreamEngineSharded is the full price of the live-telemetry path;
// the CI gate holds this arm to >= 0.92x of its committed baseline so
// the instrumentation can never quietly grow a per-record clock read.
void BM_StreamEngineShardedLatencyTracking(benchmark::State& state) {
  StreamEngineShardedLoop(state, &BenchMetricsRegistry());
}
BENCHMARK(BM_StreamEngineShardedLatencyTracking)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same sharded workload with durable checkpointing at a fixed record
// cadence (state.range(1)): the spread against BM_StreamEngineSharded at
// the same shard count is the cost of the checkpoint barrier plus the
// epoch-directory writes. The fixture replays ~37k records, so the 20k
// cadence takes one checkpoint per iteration and the 5k cadence seven;
// the per-checkpoint cost they reveal bounds the production target of
// <10% throughput overhead at a 100k-record cadence.
void BM_StreamEngineShardedCheckpointing(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const std::size_t every = static_cast<std::size_t>(state.range(1));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wum_bench_ckpt").string();
  std::size_t records = 0;
  std::uint64_t checkpoints = 0;
  for (auto _ : state) {
    CallbackSessionSink sink(
        [](const std::string&, Session) { return Status::OK(); });
    EngineOptions options;
    options.set_num_shards(shards)
        .set_queue_capacity(4096)
        .use_smart_sra(&fixture.graph);
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(std::move(options), &sink);
    if (!engine.ok()) {
      state.SkipWithError("create failed");
      break;
    }
    // Batched offer with batches chopped at the checkpoint cadence, so
    // each checkpoint lands at exactly the same record offset as the
    // old per-record loop.
    const std::span<const LogRecordRef> refs(fixture.log_refs);
    for (std::size_t i = 0; i < refs.size();) {
      const std::size_t to_cadence = every - (i % every);
      const std::size_t n =
          std::min({kOfferBatchSize, to_cadence, refs.size() - i});
      if (!(*engine)->OfferBatch(refs.subspan(i, n)).ok()) {
        state.SkipWithError("offer failed");
        break;
      }
      i += n;
      if (i % every == 0) {
        if (!(*engine)->Checkpoint(dir).ok()) {
          state.SkipWithError("checkpoint failed");
          break;
        }
        ++checkpoints;
      }
    }
    if (!(*engine)->Finish().ok()) state.SkipWithError("finish failed");
    records += fixture.log.size();
  }
  std::filesystem::remove_all(dir);
  state.counters["checkpoints"] =
      benchmark::Counter(static_cast<double>(checkpoints));
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_StreamEngineShardedCheckpointing)
    ->Args({4, 20000})
    ->Args({4, 5000})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TopologyGeneration(benchmark::State& state) {
  SiteGeneratorOptions options;
  options.num_pages = static_cast<std::size_t>(state.range(0));
  options.mean_out_degree = 15.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(GenerateUniformSite(options, &rng));
  }
}
BENCHMARK(BM_TopologyGeneration)->Arg(300)->Arg(3000);

void BM_SubstringCapture(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  // Typical capture query: short needle against a reconstruction set.
  std::vector<std::vector<PageId>> haystacks;
  SmartSra sra(&fixture.graph);
  for (std::size_t i = 0; i < 50; ++i) {
    Result<std::vector<Session>> sessions =
        sra.Reconstruct(fixture.streams[i]);
    for (const Session& session : *sessions) {
      haystacks.push_back(session.PageSequence());
    }
  }
  const std::vector<PageId> needle =
      haystacks.empty() ? std::vector<PageId>{1, 2}
                        : haystacks.front();
  for (auto _ : state) {
    bool hit = false;
    for (const auto& haystack : haystacks) {
      hit |= ContainsAsSubstring(haystack, needle);
    }
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_SubstringCapture);

void BM_MineContiguousPatterns(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  SmartSra sra(&fixture.graph);
  std::vector<std::vector<PageId>> sequences;
  for (const auto& stream : fixture.streams) {
    Result<std::vector<Session>> sessions = sra.Reconstruct(stream);
    for (const Session& session : *sessions) {
      sequences.push_back(session.PageSequence());
    }
  }
  AprioriOptions options;
  options.min_support = std::max<std::size_t>(2, sequences.size() / 200);
  AprioriAllMiner miner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.Mine(sequences));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sequences.size()));
}
BENCHMARK(BM_MineContiguousPatterns)->Unit(benchmark::kMillisecond);

void BM_SimulateAgent(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  AgentSimulator simulator(&fixture.graph, AgentProfile());
  Rng rng(5);
  for (auto _ : state) {
    Rng agent_rng = rng.Fork();
    benchmark::DoNotOptimize(simulator.SimulateAgent(0, &agent_rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulateAgent);

// Console reporter that additionally captures records/sec per benchmark
// so main can dump a machine-readable snapshot (WUM_BENCH_JSON_OUT) for
// the CI bench-regression gate. Only per-iteration runs carry the
// items_per_second counter we want; aggregates and errors are skipped.
class ThroughputCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        records_per_second_[run.benchmark_name()] = it->second.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// name -> records/sec for every completed benchmark that reported
  /// SetItemsProcessed.
  const std::map<std::string, double>& records_per_second() const {
    return records_per_second_;
  }

 private:
  std::map<std::string, double> records_per_second_;
};

/// Writes `{"records_per_second": {"BM_...": 123.0, ...}}` to `path`.
bool WriteThroughputJson(const std::map<std::string, double>& rates,
                         const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"records_per_second\": {";
  bool first = true;
  for (const auto& [name, rate] : rates) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << std::fixed
        << static_cast<std::int64_t>(rate);
    first = false;
  }
  out << "\n  }\n}\n";
  return out.good();
}

}  // namespace
}  // namespace wum

// Custom main (instead of BENCHMARK_MAIN) so the run can end with a
// registry snapshot dump (WUM_METRICS_OUT) and a machine-readable
// throughput snapshot (WUM_BENCH_JSON_OUT) for CI artifacts.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  wum::ThroughputCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* bench_json_out = std::getenv("WUM_BENCH_JSON_OUT");
  if (bench_json_out != nullptr && *bench_json_out != '\0') {
    if (!wum::WriteThroughputJson(reporter.records_per_second(),
                                  bench_json_out)) {
      std::cerr << "bench json dump failed: " << bench_json_out << "\n";
      return 1;
    }
    std::cerr << "wrote throughput snapshot to " << bench_json_out << "\n";
  }
  const char* metrics_out = std::getenv("WUM_METRICS_OUT");
  if (metrics_out != nullptr && *metrics_out != '\0') {
    wum::Status status = wum::obs::WriteMetricsFile(
        wum::BenchMetricsRegistry().Snapshot(), metrics_out);
    if (!status.ok()) {
      std::cerr << "metrics dump failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cerr << "wrote metrics snapshot to " << metrics_out << "\n";
  }
  return 0;
}
