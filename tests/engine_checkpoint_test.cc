// Kill-and-resume equivalence tests for StreamEngine::Checkpoint /
// EngineOptions::resume_from: a run killed at any record index and
// resumed from its last checkpoint must emit exactly the same session
// multiset as an uninterrupted run — for every registry heuristic,
// across shard counts, with the dead-letter channel and counters
// restored too. The "kill" is modeled by discarding everything the dying
// engine emitted after the checkpoint barrier (a crashed process's
// un-checkpointed output never reached durable storage).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "wum/ckpt/checkpoint.h"
#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/mine/path_miner.h"
#include "wum/obs/metrics.h"
#include "wum/stream/engine.h"
#include "wum/stream/fault.h"
#include "wum/stream/heuristic_registry.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

namespace fs = std::filesystem;

LogRecord PageRecord(const std::string& ip, std::uint32_t page,
                     TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return record;
}

using Entries = std::vector<CollectingSessionSink::Entry>;

/// (user, page-sequence) pairs sorted for order-insensitive comparison.
std::vector<std::pair<std::string, std::vector<PageId>>> Canonicalize(
    const Entries& entries) {
  std::vector<std::pair<std::string, std::vector<PageId>>> out;
  for (const auto& entry : entries) {
    out.emplace_back(entry.client_ip, entry.session.PageSequence());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t EmittedRecords(const Entries& entries) {
  std::uint64_t total = 0;
  for (const auto& entry : entries) total += entry.session.requests.size();
  return total;
}

/// A workload whose time gaps cross both thresholds repeatedly, so every
/// heuristic closes several sessions per user and still has sessions
/// open at any kill index. Page walks follow Figure-1 links so the
/// graph heuristics see real navigation.
std::vector<LogRecord> MakeWorkload(int num_users, int rounds) {
  // A path that exists in MakeFigure1Topology: P1 -> P13 -> P34 -> P23.
  constexpr PageId kWalk[] = {0, 1, 4, 3};
  std::vector<LogRecord> records;
  std::vector<TimeSeconds> clock(static_cast<std::size_t>(num_users));
  for (int u = 0; u < num_users; ++u) clock[u] = u * 7;
  for (int r = 0; r < rounds; ++r) {
    for (int u = 0; u < num_users; ++u) {
      TimeSeconds gap = 60;
      if (r % 4 == 3) gap = 700;    // > max_page_stay (600)
      if (r % 8 == 7) gap = 2000;   // > max_session_duration residue too
      clock[u] += gap;
      records.push_back(PageRecord("10.0.0." + std::to_string(u),
                                   kWalk[(r + u) % 4], clock[u]));
    }
  }
  return records;
}

/// NASA-shaped mixed log around `pages`: every page view is followed by
/// the embedded-asset and noise lines a real server logs for it (two
/// gifs each time, close to the NASA-HTTP log's 2.6 per page; a jpg, an
/// xbm icon, a 404, a POST and a 304 revalidation of the page on some).
/// Extra lines stay inside the page's user stream in timestamp order.
std::vector<LogRecord> MakeNasaShapedLog(const std::vector<LogRecord>& pages) {
  std::vector<LogRecord> log;
  const auto line = [&log](const LogRecord& page, TimeSeconds delay,
                           std::string url, int status = 200,
                           HttpMethod method = HttpMethod::kGet) {
    LogRecord record = page;
    record.timestamp += delay;
    record.url = std::move(url);
    record.status_code = status;
    record.method = method;
    log.push_back(std::move(record));
  };
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const LogRecord& page = pages[i];
    log.push_back(page);
    line(page, 1, "/images/NASA-logosmall.gif");
    line(page, 1, "/images/KSC-logosmall.GIF");
    if (i % 3 == 0) line(page, 2, "/shuttle/missions/sts-71/sts-71.jpg");
    if (i % 4 == 1) line(page, 2, "/images/MOSAIC-logosmall.xbm");
    if (i % 5 == 2) line(page, 2, "/shuttle/countdown/liftoff.html", 404);
    if (i % 6 == 3) {
      line(page, 3, "/cgi-bin/imagemap/countdown", 200, HttpMethod::kPost);
    }
    if (i % 7 == 4) line(page, 3, page.url, 304);
  }
  return log;
}

/// Emits every page request as its own one-page session immediately, so
/// the session output lists exactly the page records a shard received.
class EmitEverySessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }
};

/// Engine options for one registry heuristic (graph-based or not).
EngineOptions HeuristicOptions(const std::string& heuristic,
                               const WebGraph* graph, std::size_t shards) {
  EngineOptions options;
  options.set_num_shards(shards).use_heuristic(heuristic).use_graph(graph);
  return options;
}

/// A Figure-1 page MakeWorkload never requests; tests plant it on the
/// records the fault-injecting sessionizer should fail.
constexpr PageId kPoisonPage = 5;

/// Engine options running registry `heuristic` through use_custom,
/// wrapped in the fault injector when `fault` is set.
EngineOptions CustomOptions(
    const std::string& heuristic, const WebGraph* graph, std::size_t shards,
    std::optional<FaultInjectingSessionizer::Mode> fault = std::nullopt) {
  HeuristicContext context;
  context.graph = graph;
  Result<UserSessionizerFactory> factory =
      HeuristicRegistry::Default().CreateIncremental(heuristic, context);
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  UserSessionizerFactory sessionizers = std::move(factory).ValueOrDie();
  if (fault.has_value()) {
    sessionizers = FaultInjectingSessionizer::Wrap(std::move(sessionizers),
                                                   kPoisonPage, *fault);
  }
  EngineOptions options;
  options.set_num_shards(shards).use_graph(graph).use_custom(
      std::move(sessionizers));
  return options;
}

/// `options` plus websra_serve's default cleaning filters.
EngineOptions WithStandardFilters(EngineOptions options) {
  options.add_filter([] { return std::make_unique<MethodFilter>(); })
      .add_filter([] { return std::make_unique<StatusFilter>(); })
      .add_filter([] { return std::make_unique<ExtensionFilter>(); });
  return options;
}

/// The records of `log` that `chain` keeps, in log order.
std::vector<LogRecord> KeptBy(FilterChain* chain,
                              const std::vector<LogRecord>& log) {
  std::vector<LogRecord> kept;
  for (const LogRecord& record : log) {
    if (chain->Keep(ViewOf(record))) kept.push_back(record);
  }
  return kept;
}

Entries RunUninterrupted(const EngineOptions& options,
                         const std::vector<LogRecord>& records,
                         EngineStats* stats = nullptr) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(options, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  if (!engine.ok()) return {};
  for (const LogRecord& record : records) {
    EXPECT_TRUE((*engine)->Offer(record).ok());
  }
  EXPECT_TRUE((*engine)->Finish().ok());
  if (stats != nullptr) *stats = (*engine)->TotalStats();
  return sink.entries();
}

/// Offers records[0, kill_at), checkpoints into `dir`, keeps offering
/// until the kill index, then abandons the engine. Returns only the
/// sessions committed at the barrier — the post-checkpoint entries are
/// the crash's lost output.
Entries RunUntilKilled(const EngineOptions& options,
                       const std::vector<LogRecord>& records,
                       std::size_t checkpoint_at, std::size_t kill_at,
                       const std::string& dir) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(options, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  if (!engine.ok()) return {};
  for (std::size_t i = 0; i < checkpoint_at; ++i) {
    EXPECT_TRUE((*engine)->Offer(records[i]).ok());
  }
  EXPECT_TRUE((*engine)->Checkpoint(dir).ok());
  EXPECT_EQ((*engine)->records_seen(), checkpoint_at);
  // The barrier guarantees the sink is at rest here: everything in it
  // now is covered by the checkpoint.
  const std::size_t committed = sink.entries().size();
  for (std::size_t i = checkpoint_at; i < kill_at && i < records.size();
       ++i) {
    EXPECT_TRUE((*engine)->Offer(records[i]).ok());
  }
  // The engine dies here: its destructor drains, but the entries past
  // `committed` are discarded, exactly like output a crashed process
  // never persisted.
  engine->reset();
  Entries result = sink.entries();
  result.resize(committed);
  return result;
}

/// Resumes from `dir`, replays the full input, and returns the emitted
/// sessions (plus the engine's final aggregate stats).
Entries RunResumed(EngineOptions options,
                   const std::vector<LogRecord>& records,
                   const std::string& dir, EngineStats* stats = nullptr) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(options.resume_from(dir), &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  if (!engine.ok()) return {};
  EXPECT_TRUE((*engine)->resumed());
  for (const LogRecord& record : records) {
    EXPECT_TRUE((*engine)->Offer(record).ok());
  }
  EXPECT_TRUE((*engine)->Finish().ok());
  EXPECT_EQ((*engine)->records_seen(), records.size());
  if (stats != nullptr) *stats = (*engine)->TotalStats();
  return sink.entries();
}

class EngineCheckpointTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("engine_ckpt_" + std::string(testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    graph_ = MakeFigure1Topology();
    records_ = MakeWorkload(/*num_users=*/24, /*rounds=*/12);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  WebGraph graph_ = WebGraph(0);
  std::vector<LogRecord> records_;
};

/// Kill points as (checkpoint index, kill index) pairs.
using KillPoints = std::vector<std::pair<std::size_t, std::size_t>>;

/// The matrix body: for every registry heuristic at one and three
/// shards, committed-prefix + resumed output at every kill point must
/// equal the uninterrupted run's session multiset exactly, and the
/// restored counters must add up to the baseline's. `with_filters`
/// installs websra_serve's standard cleaning filters on every run.
void ExpectKillAndResumeMatches(const WebGraph* graph,
                                const std::vector<LogRecord>& records,
                                const KillPoints& kills, bool with_filters,
                                const fs::path& root) {
  const std::string heuristics[] = {"duration", "pagestay", "navigation",
                                    "smart-sra"};
  const std::size_t shard_counts[] = {1, 3};
  for (const std::string& heuristic : heuristics) {
    for (std::size_t shards : shard_counts) {
      EngineOptions options = HeuristicOptions(heuristic, graph, shards);
      if (with_filters) options = WithStandardFilters(std::move(options));
      EngineStats baseline_stats;
      const Entries baseline =
          RunUninterrupted(options, records, &baseline_stats);
      ASSERT_FALSE(baseline.empty());
      for (const auto& [checkpoint_at, kill_at] : kills) {
        const std::string label = heuristic + "/" +
                                  std::to_string(shards) + " shards/ckpt@" +
                                  std::to_string(checkpoint_at);
        const fs::path dir =
            root / (heuristic + "-" + std::to_string(shards) + "-" +
                    std::to_string(checkpoint_at));
        Entries committed = RunUntilKilled(options, records, checkpoint_at,
                                           kill_at, dir.string());
        EngineStats resumed_stats;
        Entries resumed =
            RunResumed(options, records, dir.string(), &resumed_stats);
        Entries combined = std::move(committed);
        combined.insert(combined.end(), resumed.begin(), resumed.end());
        EXPECT_EQ(Canonicalize(combined), Canonicalize(baseline)) << label;
        // The restored engine's lifetime counters match the baseline's:
        // nothing was double-counted across the crash.
        EXPECT_EQ(resumed_stats.records_in, baseline_stats.records_in)
            << label;
        EXPECT_EQ(resumed_stats.sessions_emitted,
                  baseline_stats.sessions_emitted)
            << label;
        EXPECT_EQ(resumed_stats.records_dropped,
                  baseline_stats.records_dropped)
            << label;
      }
    }
  }
}

// The acceptance matrix over the plain page-view workload: early,
// unaligned mid-stream, and a checkpoint with no further input before
// the crash.
TEST_F(EngineCheckpointTest, KillAndResumeMatchesUninterruptedRun) {
  ExpectKillAndResumeMatches(&graph_, records_,
                             {{24, 60}, {121, 150}, {200, 200}},
                             /*with_filters=*/false, dir_);
}

// The same matrix with the standard cleaning filters on a NASA-shaped
// log, where most lines are embedded assets, errors or POSTs. The
// filters drop records on the producer before they reach a shard, so
// their drop count lives only in the shard counters: unless it rides
// the checkpoint, the resumed records_dropped falls short of the
// uninterrupted run's.
TEST_F(EngineCheckpointTest, FilteredKillAndResumeMatchesUninterruptedRun) {
  const std::vector<LogRecord> mixed = MakeNasaShapedLog(records_);
  // Every kind of line is present: each filter and the non-page skip
  // contribute drops.
  FilterChain chain = FilterChain::Standard();
  const std::vector<LogRecord> kept = KeptBy(&chain, mixed);
  for (const FilterChain::FilterStats& stats : chain.stats()) {
    EXPECT_GT(stats.dropped, 0u) << stats.name;
  }
  const std::uint64_t non_page = static_cast<std::uint64_t>(
      std::count_if(kept.begin(), kept.end(), [](const LogRecord& record) {
        return !PageFromUrl(record.url).has_value();
      }));
  EXPECT_GT(non_page, 0u);
  EngineStats stats;
  RunUninterrupted(
      WithStandardFilters(HeuristicOptions("smart-sra", &graph_, 3)), mixed,
      &stats);
  EXPECT_EQ(stats.records_in, mixed.size());
  EXPECT_EQ(stats.records_dropped, mixed.size() - kept.size() + non_page);

  ExpectKillAndResumeMatches(&graph_, mixed,
                             {{90, 230}, {437, 520}, {700, 700}},
                             /*with_filters=*/true, dir_);
}

// Engine add_filter and batch FilterChain::Standard() are one filter
// mechanism: the engine keeps exactly the records the batch chain keeps
// (same page views per user, same non-page survivors), and counts the
// rest in records_filtered.
TEST_F(EngineCheckpointTest, EngineFiltersKeepWhatBatchChainKeeps) {
  const std::vector<LogRecord> mixed = MakeNasaShapedLog(records_);
  FilterChain chain = FilterChain::Standard();
  const std::vector<LogRecord> kept = KeptBy(&chain, mixed);
  const auto run = [this](const std::vector<LogRecord>& records,
                          bool with_filters, EngineStats* stats,
                          std::uint64_t* filtered) {
    obs::MetricRegistry registry;
    CollectingSessionSink sink;
    EngineOptions options;
    options.set_num_shards(3)
        .set_metrics(&registry)
        .set_num_pages(graph_.num_pages())
        .use_custom([] { return std::make_unique<EmitEverySessionizer>(); });
    if (with_filters) options = WithStandardFilters(std::move(options));
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(options, &sink);
    EXPECT_TRUE(engine.ok()) << engine.status().message();
    if (!engine.ok()) return Entries{};
    for (const LogRecord& record : records) {
      EXPECT_TRUE((*engine)->Offer(record).ok());
    }
    EXPECT_TRUE((*engine)->Finish().ok());
    *stats = (*engine)->TotalStats();
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    *filtered = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      *filtered += snapshot.CounterOrZero(
          "engine.shard" + std::to_string(i) + ".records_filtered");
    }
    return sink.entries();
  };
  EngineStats streamed_stats;
  std::uint64_t streamed_filtered = 0;
  const Entries streamed =
      run(mixed, /*with_filters=*/true, &streamed_stats, &streamed_filtered);
  EngineStats batch_stats;
  std::uint64_t batch_filtered = 0;
  const Entries batch =
      run(kept, /*with_filters=*/false, &batch_stats, &batch_filtered);
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(Canonicalize(streamed), Canonicalize(batch));
  EXPECT_EQ(batch_filtered, 0u);
  EXPECT_EQ(streamed_filtered, mixed.size() - kept.size());
  EXPECT_EQ(streamed_stats.records_in, mixed.size());
  // Whatever survives the filters meets the same non-page skip.
  EXPECT_EQ(streamed_stats.records_dropped - streamed_filtered,
            batch_stats.records_dropped);
}

// Checkpoints are cumulative: a second checkpoint supersedes the first
// (epoch advances, stale epoch directories are removed) and resume picks
// up the latest one.
TEST_F(EngineCheckpointTest, SecondCheckpointSupersedesFirst) {
  const Entries baseline =
      RunUninterrupted(HeuristicOptions("smart-sra", &graph_, 2), records_);
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      HeuristicOptions("smart-sra", &graph_, 2), &sink);
  ASSERT_TRUE(engine.ok());
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
  }
  ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
  EXPECT_TRUE(fs::exists(dir_ / ckpt::EpochDirName(1)));
  for (std::size_t i = 50; i < 140; ++i) {
    ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
  }
  ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
  const std::size_t committed = sink.entries().size();
  engine->reset();  // crash after the second barrier

  // Epoch bookkeeping: epoch 2 is committed, epoch 1 is gone.
  Result<std::uint64_t> current = ckpt::ReadCurrent(dir_.string());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 2u);
  EXPECT_FALSE(fs::exists(dir_ / ckpt::EpochDirName(1)));
  EXPECT_TRUE(fs::exists(dir_ / ckpt::EpochDirName(2)));

  Entries combined = sink.entries();
  combined.resize(committed);
  const Entries resumed =
      RunResumed(HeuristicOptions("smart-sra", &graph_, 2), records_,
                 dir_.string());
  combined.insert(combined.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(Canonicalize(combined), Canonicalize(baseline));
}

// Regression: a checkpoint taken while a resumed engine is still inside
// its replay-skip phase must not shrink the skip offset. records_seen_
// restarts at zero on resume while the restored state already covers
// resume_skip_ records; committing the smaller count would make the
// next resume replay already-absorbed records into the restored
// sessionizers and emit duplicate sessions.
TEST_F(EngineCheckpointTest, CheckpointDuringReplayKeepsSkipOffset) {
  const Entries baseline =
      RunUninterrupted(HeuristicOptions("smart-sra", &graph_, 2), records_);
  // First run: checkpoint at record 100, then crash at the barrier.
  Entries committed =
      RunUntilKilled(HeuristicOptions("smart-sra", &graph_, 2), records_,
                     /*checkpoint_at=*/100, /*kill_at=*/100, dir_.string());
  // Second run: resume, offer only 40 records — all inside the replay
  // skip — take the cadence-driven checkpoint a tool would take, and
  // crash again mid-replay.
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        HeuristicOptions("smart-sra", &graph_, 2).resume_from(dir_.string()),
        &sink);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    for (std::size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
    EXPECT_TRUE(sink.entries().empty());  // replay emitted nothing new
    engine->reset();  // the crash
  }
  // Third run: resume from the mid-replay checkpoint. It must skip the
  // 100 records the state covers, not the 40 the dying engine had
  // re-counted — combined output still matches the baseline exactly.
  Entries resumed =
      RunResumed(HeuristicOptions("smart-sra", &graph_, 2), records_,
                 dir_.string());
  Entries combined = std::move(committed);
  combined.insert(combined.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(Canonicalize(combined), Canonicalize(baseline));
}

// A resumed engine can checkpoint again; the epoch counter continues
// past the restored one instead of overwriting it.
TEST_F(EngineCheckpointTest, ResumedEngineCheckpointsIntoLaterEpochs) {
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        HeuristicOptions("duration", &graph_, 2), &sink);
    ASSERT_TRUE(engine.ok());
    for (std::size_t i = 0; i < 30; ++i) {
      ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
  }
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      HeuristicOptions("duration", &graph_, 2).resume_from(dir_.string()),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  for (std::size_t i = 0; i < 80; ++i) {
    ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
  }
  ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
  Result<std::uint64_t> current = ckpt::ReadCurrent(dir_.string());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 2u);
  ASSERT_TRUE((*engine)->Finish().ok());
}

// The opaque sink state travels through the manifest: what the
// sink_state_fn returned at the barrier is exactly what
// resumed_sink_state() hands back.
TEST_F(EngineCheckpointTest, SinkStateRoundTripsThroughManifest) {
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        HeuristicOptions("duration", &graph_, 1), &sink);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Offer(records_[0]).ok());
    ASSERT_TRUE((*engine)
                    ->Checkpoint(dir_.string(),
                                 []() -> Result<std::string> {
                                   return std::string("journal:12345");
                                 })
                    .ok());
  }
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      HeuristicOptions("duration", &graph_, 1).resume_from(dir_.string()),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  EXPECT_TRUE((*engine)->resumed());
  EXPECT_EQ((*engine)->resumed_sink_state(), "journal:12345");
  ASSERT_TRUE((*engine)->Finish().ok());

  // A fresh (non-resumed) engine reports neither.
  CollectingSessionSink fresh_sink;
  Result<std::unique_ptr<StreamEngine>> fresh = StreamEngine::Create(
      HeuristicOptions("duration", &graph_, 1), &fresh_sink);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE((*fresh)->resumed());
  EXPECT_TRUE((*fresh)->resumed_sink_state().empty());
  ASSERT_TRUE((*fresh)->Finish().ok());
}

// A checkpoint taken before a shard-fatal fault under kFailFast is the
// recovery point: the poisoned run dies, the resumed (fault-free) run
// replays from the checkpoint and the combined output matches an
// undisturbed baseline.
TEST_F(EngineCheckpointTest, RecoversFromFailFastCrash) {
  // Record 150 (past the checkpoint at offer index 60) carries the
  // poison page, so the engine stops on it. The fault injector is
  // a use_custom wrapper, and a checkpoint remembers "custom" as its
  // heuristic, so the baseline and the resumed run use the same
  // registry factory through use_custom, just unwrapped.
  std::vector<LogRecord> records = records_;
  records[150].url = PageUrl(kPoisonPage);
  const EngineOptions clean = CustomOptions("smart-sra", &graph_, 2);
  const Entries baseline = RunUninterrupted(clean, records);
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      CustomOptions("smart-sra", &graph_, 2,
                    FaultInjectingSessionizer::Mode::kShardFatal),
      &sink);
  ASSERT_TRUE(engine.ok());
  for (std::size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE((*engine)->Offer(records[i]).ok());
  }
  ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
  const std::size_t committed = sink.entries().size();
  // Keep offering until the injected fault surfaces (Offer or Finish).
  Status status;
  for (std::size_t i = 60; i < records.size() && status.ok(); ++i) {
    status = (*engine)->Offer(records[i]);
  }
  if (status.ok()) status = (*engine)->Finish();
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  // A poisoned engine refuses to checkpoint over the good state.
  EXPECT_FALSE((*engine)->Checkpoint(dir_.string()).ok());
  engine->reset();

  Entries combined = sink.entries();
  combined.resize(committed);
  const Entries resumed = RunResumed(clean, records, dir_.string());
  combined.insert(combined.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(Canonicalize(combined), Canonicalize(baseline));
}

// The dead-letter channel is part of the snapshot: letters quarantined
// before the crash survive the resume, and the conservation invariant
// (emitted + dead-lettered == accepted) holds across the restart.
TEST_F(EngineCheckpointTest, DeadLettersSurviveResume) {
  // Records 1 and 3 carry the poison page and are quarantined, well
  // before the barrier.
  std::vector<LogRecord> records = records_;
  records[1].url = PageUrl(kPoisonPage);
  records[3].url = PageUrl(kPoisonPage);
  DeadLetterQueue first_queue;
  Entries committed_entries;
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        CustomOptions("duration", &graph_, 1,
                      FaultInjectingSessionizer::Mode::kReject)
            .set_error_policy(ErrorPolicy::kDegrade)
            .set_dead_letters(&first_queue),
        &sink);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    for (std::size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE((*engine)->Offer(records[i]).ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
    ASSERT_EQ(first_queue.total_offered(), 2u);
    committed_entries = sink.entries();
  }

  // Resume with a fresh, empty queue and no faults: the two letters are
  // restored from the checkpoint, not re-quarantined.
  DeadLetterQueue restored_queue;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      CustomOptions("duration", &graph_, 1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&restored_queue)
          .resume_from(dir_.string()),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  EXPECT_EQ(restored_queue.total_offered(), 2u);
  EXPECT_EQ(restored_queue.records_covered(), 2u);
  EXPECT_EQ(restored_queue.size(), 2u);
  for (const LogRecord& record : records) {
    ASSERT_TRUE((*engine)->Offer(record).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Conservation across the restart: every record ever offered is in a
  // committed session, a resumed session, or a restored dead letter.
  EXPECT_EQ(EmittedRecords(committed_entries) + EmittedRecords(sink.entries()) +
                restored_queue.records_covered(),
            records.size());
  std::vector<DeadLetter> letters = restored_queue.Drain();
  ASSERT_EQ(letters.size(), 2u);
  for (const DeadLetter& letter : letters) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kRecord);
    EXPECT_EQ(letter.shard, 0u);
    ASSERT_TRUE(letter.record.has_value());
  }
}

// ckpt.* observability: checkpoints and resume skips are counted in the
// attached registry.
TEST_F(EngineCheckpointTest, CheckpointMetricsAreRecorded) {
  obs::MetricRegistry registry;
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        HeuristicOptions("duration", &graph_, 1).set_metrics(&registry),
        &sink);
    ASSERT_TRUE(engine.ok());
    for (std::size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
    ASSERT_TRUE((*engine)->Finish().ok());
  }
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  const auto* written = snapshot.FindCounter("ckpt.checkpoints_written");
  ASSERT_NE(written, nullptr);
  EXPECT_EQ(written->value, 1u);
  const auto* bytes = snapshot.FindCounter("ckpt.bytes_written");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value, 0u);
  const auto* latency = snapshot.FindHistogram("ckpt.write_latency_us");
  ASSERT_NE(latency, nullptr);
  // The epoch directory carries the metrics snapshot alongside the
  // state files: the --metrics-out JSON format, taken after the shard
  // barrier, so it counts every record offered before the checkpoint.
  // It is what a killed run leaves behind.
  const fs::path metrics_path = dir_ / ckpt::EpochDirName(1) / "metrics.json";
  std::ifstream metrics_file(metrics_path);
  ASSERT_TRUE(metrics_file.good()) << metrics_path;
  std::stringstream metrics_content;
  metrics_content << metrics_file.rdbuf();
  const std::string json = metrics_content.str();
  EXPECT_EQ(json.rfind("{\n  \"counters\": {\n", 0), 0u) << json;
  EXPECT_NE(json.find("\n  \"histograms\": {"), std::string::npos);
  EXPECT_TRUE(json.ends_with("\n}\n"));
  const std::string records_in = "\n    \"engine.shard0.records_in\": 40";
  const std::size_t at = json.find(records_in);
  ASSERT_NE(at, std::string::npos) << json;
  const char after = json[at + records_in.size()];
  EXPECT_TRUE(after == ',' || after == '\n') << json;

  obs::MetricRegistry resumed_registry;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      HeuristicOptions("duration", &graph_, 1)
          .set_metrics(&resumed_registry)
          .resume_from(dir_.string()),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  for (const LogRecord& record : records_) {
    ASSERT_TRUE((*engine)->Offer(record).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  const obs::MetricsSnapshot resumed_snapshot = resumed_registry.Snapshot();
  const auto* skipped =
      resumed_snapshot.FindCounter("ckpt.records_resume_skipped");
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(skipped->value, 40u);
}

// Resume validation: incompatible configurations and broken directories
// fail loudly with precise errors instead of silently diverging.
TEST_F(EngineCheckpointTest, ResumeRejectsIncompatibleConfigurations) {
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        HeuristicOptions("duration", &graph_, 2), &sink);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Offer(records_[0]).ok());
    ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
    ASSERT_TRUE((*engine)->Finish().ok());
  }
  CollectingSessionSink sink;
  auto create = [&](EngineOptions options) {
    return StreamEngine::Create(std::move(options), &sink).status();
  };

  // Shard-count mismatch.
  Status status =
      create(HeuristicOptions("duration", &graph_, 3).resume_from(
          dir_.string()));
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("shards"), std::string::npos);

  // Heuristic mismatch.
  status = create(
      HeuristicOptions("pagestay", &graph_, 2).resume_from(dir_.string()));
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("heuristic"), std::string::npos);

  // Identity mismatch.
  status = create(HeuristicOptions("duration", &graph_, 2)
                      .set_identity(UserIdentity::kClientIpAndUserAgent)
                      .resume_from(dir_.string()));
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("identity"), std::string::npos);

  // Threshold mismatch.
  TimeThresholds other;
  other.max_page_stay = 123;
  status = create(HeuristicOptions("duration", &graph_, 2)
                      .set_thresholds(other)
                      .resume_from(dir_.string()));
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("thresholds"), std::string::npos);

  // Empty directory: NotFound, the signal websra_sessionize --resume
  // uses to start fresh.
  const fs::path empty = dir_ / "empty";
  fs::create_directories(empty);
  status = create(
      HeuristicOptions("duration", &graph_, 2).resume_from(empty.string()));
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
}

// A custom sessionizer without checkpoint hooks cannot be checkpointed —
// the failure is a precise Unimplemented, not silent state loss.
TEST_F(EngineCheckpointTest, CustomSessionizerWithoutHooksRefuses) {
  class PlainSessionizer : public IncrementalUserSessionizer {
   public:
    Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
      Session session;
      session.requests.push_back(request);
      return emit(std::move(session));
    }
    Status Flush(const EmitFn&) override { return Status::OK(); }
  };
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_num_pages(graph_.num_pages())
          .use_custom([] { return std::make_unique<PlainSessionizer>(); }),
      &sink);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(records_[0]).ok());
  Status status = (*engine)->Checkpoint(dir_.string());
  EXPECT_TRUE(status.IsUnimplemented()) << status.ToString();
  ASSERT_TRUE((*engine)->Finish().ok());
}

// The per-shard user table is part of the snapshot: under the
// ip+user-agent identity a batched run killed mid-stream and resumed
// must emit exactly the uninterrupted run's session multiset. The
// baseline is driven record-at-a-time, so the same comparison also
// cross-checks OfferBatch-vs-Offer equivalence across the crash.
TEST_F(EngineCheckpointTest, UserTableSurvivesKillAndResumeUnderBatchedIngest) {
  // MakeWorkload leaves user_agent empty; give each user a stable
  // browser so the identity keys exercise the table's save/restore.
  std::vector<LogRecord> records = records_;
  for (LogRecord& record : records) {
    record.user_agent =
        record.client_ip.back() % 2 == 0 ? "Mozilla/4.0" : "Opera/8.0";
  }
  const auto options = [this](const std::string& heuristic,
                              std::size_t shards) {
    EngineOptions o = HeuristicOptions(heuristic, &graph_, shards);
    o.set_identity(UserIdentity::kClientIpAndUserAgent);
    return o;
  };
  const auto offer_batched = [](StreamEngine& engine,
                                std::span<const LogRecord> slice) {
    std::vector<LogRecordRef> refs;
    refs.reserve(slice.size());
    for (const LogRecord& record : slice) refs.push_back(ViewOf(record));
    const std::span<const LogRecordRef> all(refs);
    for (std::size_t i = 0; i < all.size(); i += 37) {
      ASSERT_TRUE(
          engine
              .OfferBatch(
                  all.subspan(i, std::min<std::size_t>(37, all.size() - i)))
              .ok());
    }
  };
  for (const std::string heuristic : {"duration", "smart-sra"}) {
    for (const std::size_t shards : {1u, 3u}) {
      SCOPED_TRACE(heuristic + "/" + std::to_string(shards) + " shards");
      const fs::path dir = dir_ / (heuristic + std::to_string(shards));
      fs::create_directories(dir);

      Entries baseline;
      {
        CollectingSessionSink sink;
        Result<std::unique_ptr<StreamEngine>> engine =
            StreamEngine::Create(options(heuristic, shards), &sink);
        ASSERT_TRUE(engine.ok()) << engine.status().message();
        for (const LogRecord& record : records) {
          ASSERT_TRUE((*engine)->Offer(record).ok());
        }
        ASSERT_TRUE((*engine)->Finish().ok());
        baseline = sink.entries();
      }

      // Batched run: checkpoint at a batch-unaligned index, keep going,
      // then crash.
      Entries committed;
      {
        CollectingSessionSink sink;
        Result<std::unique_ptr<StreamEngine>> engine =
            StreamEngine::Create(options(heuristic, shards), &sink);
        ASSERT_TRUE(engine.ok()) << engine.status().message();
        offer_batched(**engine,
                      std::span<const LogRecord>(records).first(117));
        ASSERT_TRUE((*engine)->Checkpoint(dir.string()).ok());
        EXPECT_EQ((*engine)->records_seen(), 117u);
        const std::size_t barrier = sink.entries().size();
        offer_batched(**engine,
                      std::span<const LogRecord>(records).subspan(117, 43));
        engine->reset();  // the crash
        committed = sink.entries();
        committed.resize(barrier);
      }

      // Resume replays the whole input through OfferBatch; the restored
      // table must map every identity back to its open sessions.
      Entries resumed;
      {
        CollectingSessionSink sink;
        Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
            options(heuristic, shards).resume_from(dir.string()), &sink);
        ASSERT_TRUE(engine.ok()) << engine.status().message();
        EXPECT_TRUE((*engine)->resumed());
        offer_batched(**engine, std::span<const LogRecord>(records));
        ASSERT_TRUE((*engine)->Finish().ok());
        resumed = sink.entries();
      }

      Entries combined = std::move(committed);
      combined.insert(combined.end(), resumed.begin(), resumed.end());
      EXPECT_EQ(Canonicalize(combined), Canonicalize(baseline));
    }
  }
}

// The online miner's state rides the checkpoint: a run killed after the
// barrier and resumed must answer PATTERNS exactly as the uninterrupted
// run, byte for byte at one and at three shards (each shard's miner is a
// function of its own users' sessions, so cross-shard arrival order
// cannot reach the merged answer).
TEST_F(EngineCheckpointTest, MiningStateSurvivesKillAndResume) {
  mine::MinerOptions mining;
  mining.top_k = 10;
  mining.capacity = 64;  // ample: every tracked estimate is exact
  const auto options = [&](std::size_t shards) {
    EngineOptions o = HeuristicOptions("smart-sra", &graph_, shards);
    o.set_mining(mining);
    return o;
  };
  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const fs::path dir = dir_ / ("mine" + std::to_string(shards));
    fs::create_directories(dir);

    std::string baseline_json;
    std::vector<mine::PatternEstimate> baseline_estimates;
    {
      CollectingSessionSink sink;
      Result<std::unique_ptr<StreamEngine>> engine =
          StreamEngine::Create(options(shards), &sink);
      ASSERT_TRUE(engine.ok()) << engine.status().message();
      ASSERT_NE((*engine)->mining(), nullptr);
      for (const LogRecord& record : records_) {
        ASSERT_TRUE((*engine)->Offer(record).ok());
      }
      ASSERT_TRUE((*engine)->Finish().ok());
      baseline_json = (*engine)->mining()->PatternsJson();
      baseline_estimates = (*engine)->mining()->TopK(mining.capacity);
    }
    ASSERT_FALSE(baseline_estimates.empty());

    // Kill: checkpoint mid-stream, keep mining past the barrier, crash.
    {
      CollectingSessionSink sink;
      Result<std::unique_ptr<StreamEngine>> engine =
          StreamEngine::Create(options(shards), &sink);
      ASSERT_TRUE(engine.ok()) << engine.status().message();
      for (std::size_t i = 0; i < 121; ++i) {
        ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
      }
      ASSERT_TRUE((*engine)->Checkpoint(dir.string()).ok());
      EXPECT_TRUE(
          fs::exists(dir / ckpt::EpochDirName(1) / "mining.state"));
      for (std::size_t i = 121; i < 160; ++i) {
        ASSERT_TRUE((*engine)->Offer(records_[i]).ok());
      }
      engine->reset();  // the crash
    }

    // Resume and replay everything: the miner must reconverge.
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        options(shards).resume_from(dir.string()), &sink);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    ASSERT_NE((*engine)->mining(), nullptr);
    EXPECT_GT((*engine)->mining()->sessions_seen(), 0u);  // restored state
    for (const LogRecord& record : records_) {
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
    ASSERT_TRUE((*engine)->Finish().ok());
    EXPECT_EQ((*engine)->mining()->TopK(mining.capacity), baseline_estimates);
    EXPECT_EQ((*engine)->mining()->PatternsJson(), baseline_json);
  }
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Multi-shard mining is reproducible: the same records through three
// shards give byte-identical PATTERNS and mining.state on every run. The
// capacity of 4 forces evictions, so neither eviction choices nor the
// first-seen tie-break may depend on how thread timing interleaves the
// shards. One OfferBatch hands each shard more records than an inline
// drain takes, so the three workers really do emit concurrently.
TEST_F(EngineCheckpointTest, MultiShardMiningIsDeterministic) {
  mine::MinerOptions mining;
  mining.top_k = 4;
  mining.capacity = 4;
  std::string first_json;
  std::string first_state;
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const fs::path dir = dir_ / ("run" + std::to_string(run));
    CollectingSessionSink sink;
    EngineOptions o = HeuristicOptions("smart-sra", &graph_, 3);
    o.set_mining(mining);
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(std::move(o), &sink);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    std::vector<LogRecordRef> refs;
    for (const LogRecord& record : records_) refs.push_back(ViewOf(record));
    ASSERT_GT(refs.size() / 3, ThreadedDriver::kInlineDrainMaxRecords);
    ASSERT_TRUE((*engine)->OfferBatch(refs).ok());
    ASSERT_TRUE((*engine)->Checkpoint(dir.string()).ok());
    ASSERT_TRUE((*engine)->Finish().ok());
    const std::string json = (*engine)->mining()->PatternsJson();
    const std::string state =
        ReadBytes(dir / ckpt::EpochDirName(1) / "mining.state");
    ASSERT_FALSE(state.empty());
    if (run == 0) {
      first_json = json;
      first_state = state;
      continue;
    }
    EXPECT_EQ(json, first_json);
    EXPECT_EQ(state, first_state);
  }
}

// mining.state is each shard's PathMiner frames in shard order, so a
// one-shard file keeps the standalone PathMiner layout and still
// restores, while a three-shard resume handed one miner's frames (the
// layout every multi-shard file had before per-shard mining) is refused
// with a ParseError naming both frame counts.
TEST_F(EngineCheckpointTest, MiningStateFrameLayout) {
  mine::MinerOptions mining;
  mining.top_k = 10;
  mining.capacity = 64;
  mine::PathMiner standalone(mining, &graph_, nullptr);
  standalone.AddSession({0, 1, 4, 3});
  standalone.AddSession({0, 1, 4});
  std::vector<std::string> single_frames;
  ASSERT_TRUE(standalone.SerializeState(&single_frames).ok());
  ASSERT_EQ(single_frames.size(), 3u);  // header + lengths 2 and 3

  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const fs::path dir = dir_ / ("layout" + std::to_string(shards));
    const auto options = [&] {
      EngineOptions o = HeuristicOptions("smart-sra", &graph_, shards);
      o.set_mining(mining);
      return o;
    };
    {
      CollectingSessionSink sink;
      Result<std::unique_ptr<StreamEngine>> engine =
          StreamEngine::Create(options(), &sink);
      ASSERT_TRUE(engine.ok()) << engine.status().message();
      ASSERT_TRUE((*engine)->Offer(records_[0]).ok());
      ASSERT_TRUE((*engine)->Checkpoint(dir.string()).ok());
      ASSERT_TRUE((*engine)->Finish().ok());
    }
    ASSERT_TRUE(ckpt::WriteFramedFile(
                    (dir / ckpt::EpochDirName(1) / "mining.state").string(),
                    ckpt::kMiningMagic, single_frames)
                    .ok());
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(options().resume_from(dir.string()), &sink);
    if (shards == 1) {
      ASSERT_TRUE(engine.ok()) << engine.status().message();
      EXPECT_EQ((*engine)->mining()->PatternsJson(), standalone.PatternsJson());
    } else {
      ASSERT_FALSE(engine.ok());
      EXPECT_TRUE(engine.status().IsParseError()) << engine.status().ToString();
      EXPECT_NE(engine.status().message().find("holds 3 frames, expected 9"),
                std::string::npos)
          << engine.status().message();
    }
  }
}

// Resume refuses a checkpoint whose mining state was written under a
// different miner configuration.
TEST_F(EngineCheckpointTest, ResumeRejectsMiningConfigMismatch) {
  mine::MinerOptions mining;
  mining.top_k = 10;
  mining.capacity = 64;
  {
    CollectingSessionSink sink;
    EngineOptions o = HeuristicOptions("duration", &graph_, 1);
    o.set_mining(mining);
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(std::move(o), &sink);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Offer(records_[0]).ok());
    ASSERT_TRUE((*engine)->Checkpoint(dir_.string()).ok());
    ASSERT_TRUE((*engine)->Finish().ok());
  }
  CollectingSessionSink sink;
  EngineOptions o = HeuristicOptions("duration", &graph_, 1);
  mining.capacity = 128;  // diverges from the snapshot
  o.set_mining(mining);
  o.resume_from(dir_.string());
  const Status status = StreamEngine::Create(std::move(o), &sink).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

// Checkpoint after Finish is a contract violation, reported as such.
TEST_F(EngineCheckpointTest, CheckpointAfterFinishFails) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      HeuristicOptions("duration", &graph_, 1), &sink);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->Checkpoint(dir_.string()).IsFailedPrecondition());
}

}  // namespace
}  // namespace wum
