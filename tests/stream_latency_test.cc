// Pipeline lag instrumentation under injected clocks: per-shard
// event-time watermarks (and the derived lag/skew gauges computed at
// scrape time), the ingest-to-emit latency histogram fed by batch
// accept stamps, the zero-cost guarantee that an uninstrumented engine
// never reads the clock, and watermark survival across checkpoint +
// resume.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "wum/obs/metrics.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

namespace fs = std::filesystem;

// Injected clocks. SetClockForTesting takes a plain function pointer,
// so the state lives in file-scope atomics. Every NowMicros() call
// advances the monotonic clock by 100us; the epoch clock is a settable
// constant "wall time".
std::atomic<std::uint64_t> g_micros{1'000'000};
std::atomic<std::uint64_t> g_micros_calls{0};
std::atomic<std::uint64_t> g_epoch_seconds{1'300'000'000};

double TestMicros() {
  g_micros_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<double>(
      g_micros.fetch_add(100, std::memory_order_relaxed));
}

std::uint64_t TestEpochSeconds() {
  return g_epoch_seconds.load(std::memory_order_relaxed);
}

class StreamLatencyTest : public testing::Test {
 protected:
  void SetUp() override {
    obs::internal::SetClockForTesting(&TestMicros);
    obs::internal::SetEpochClockForTesting(&TestEpochSeconds);
    g_epoch_seconds.store(1'300'000'000, std::memory_order_relaxed);
  }
  void TearDown() override {
    obs::internal::SetClockForTesting(nullptr);
    obs::internal::SetEpochClockForTesting(nullptr);
  }
};

LogRecord PageRecord(const std::string& ip, std::uint32_t page,
                     TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return record;
}

std::uint64_t GaugeValue(const obs::MetricsSnapshot& snapshot,
                         const std::string& name) {
  const obs::MetricsSnapshot::GaugeValue* gauge = snapshot.FindGauge(name);
  return gauge != nullptr ? gauge->value : 0;
}

TEST_F(StreamLatencyTest, WatermarkGaugesTrackShardMaximaLagAndSkew) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr std::size_t kShards = 2;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  // Eight users, two rounds 5000s apart: each user's event-time maximum
  // is kBase + 5000 + u, so shard watermarks differ wherever the user
  // partition does.
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t u = 0; u < 8; ++u) {
      ASSERT_TRUE((*engine)
                      ->Offer(PageRecord("10.0.0." + std::to_string(u),
                                         u % 5,
                                         kBase + round * 5000 + u))
                      .ok());
    }
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // The accessors are ground truth; the probe-driven gauges must agree.
  std::uint64_t min_nonzero = 0;
  std::uint64_t max_watermark = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    const std::uint64_t watermark = (*engine)->ShardWatermarkSeconds(k);
    if (watermark != 0 && (min_nonzero == 0 || watermark < min_nonzero)) {
      min_nonzero = watermark;
    }
    if (watermark > max_watermark) max_watermark = watermark;
  }
  // The global maximum is the latest event ever offered.
  EXPECT_EQ(max_watermark, static_cast<std::uint64_t>(kBase + 5000 + 7));
  ASSERT_NE(min_nonzero, 0u);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (std::size_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(GaugeValue(snapshot, "engine.shard" + std::to_string(k) +
                                       ".watermark_seconds"),
              (*engine)->ShardWatermarkSeconds(k));
    // Everything is drained after Finish.
    EXPECT_EQ(GaugeValue(snapshot, "engine.shard" + std::to_string(k) +
                                       ".queue_depth"),
              0u);
  }
  const std::uint64_t now = g_epoch_seconds.load();
  ASSERT_GT(now, max_watermark);  // replaying a historical log
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_lag_seconds"),
            now - min_nonzero);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_skew_seconds"),
            max_watermark - min_nonzero);

  // A wall clock *behind* event time (clock skew, synthetic logs from
  // the future) clamps lag to zero instead of underflowing.
  g_epoch_seconds.store(kBase, std::memory_order_relaxed);
  const obs::MetricsSnapshot clamped = registry.Snapshot();
  EXPECT_EQ(GaugeValue(clamped, "engine.watermark_lag_seconds"), 0u);
  EXPECT_EQ(GaugeValue(clamped, "engine.watermark_skew_seconds"),
            max_watermark - min_nonzero);
}

TEST_F(StreamLatencyTest, WatermarkZeroBeforeFirstRecordKeepsLagUnset) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok());
  // No records absorbed anywhere: per-shard watermarks are 0 and the
  // probe must not fabricate a lag against watermark 0 (which would be
  // ~55 years).
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(GaugeValue(snapshot, "engine.shard0.watermark_seconds"), 0u);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_lag_seconds"), 0u);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_skew_seconds"), 0u);
  ASSERT_TRUE((*engine)->Finish().ok());
}

TEST_F(StreamLatencyTest, IngestToEmitLatencyObservedForStreamingEmissions) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok());
  // One user walks Figure 1 twice, 5000s apart: the second walk's
  // arrival closes the first session *while streaming* (batch stamp
  // live), so at least one ingest-to-emit latency lands in the
  // histogram. The final session flushes at Finish with the stamp
  // zeroed — no stale-stamp pollution.
  constexpr PageId kWalk[] = {0, 1, 4, 3};
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*engine)
                      ->Offer(PageRecord("10.1.0.1", kWalk[i],
                                         kBase + round * 5000 + i * 30))
                      .ok());
    }
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  const std::uint64_t sessions = (*engine)->TotalStats().sessions_emitted;
  ASSERT_GE(sessions, 2u);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const obs::MetricsSnapshot::HistogramValue* latency =
      snapshot.FindHistogram("engine.shard0.ingest_to_emit_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count, 1u);
  // Only streaming emissions observe; Finish-flush sessions must not.
  EXPECT_LT(latency->count, sessions);
  // The injected clock advances 100us per read, so every latency is a
  // positive multiple of it: accept stamps really precede emission.
  EXPECT_GE(latency->min, 100.0);
  EXPECT_GE(latency->sum, latency->min * static_cast<double>(latency->count));
  // The mirror counter confirms the records the latencies cover.
  EXPECT_EQ(snapshot.CounterOrZero("engine.shard0.records_in"), 8u);
}

TEST_F(StreamLatencyTest, UninstrumentedEngineNeverReadsTheClock) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sink);
  ASSERT_TRUE(engine.ok());
  const std::uint64_t calls_before =
      g_micros_calls.load(std::memory_order_relaxed);
  for (std::uint32_t u = 0; u < 8; ++u) {
    ASSERT_TRUE(
        (*engine)
            ->Offer(PageRecord("10.2.0." + std::to_string(u), u % 5, kBase))
            .ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  // No registry: the entire offer -> drain -> emit path must
  // run without a single clock read (the "disabled handles" contract
  // that makes telemetry free when switched off).
  EXPECT_EQ(g_micros_calls.load(std::memory_order_relaxed), calls_before);
}

TEST_F(StreamLatencyTest, InstrumentedDrainReadsTheClockTwicePerRecord) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr TimeSeconds kBase = 1'200'000'000;
  constexpr std::size_t kRecords = 50;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok());
  // One user, one page view a second: no page stay exceeds rho and the
  // walk stays inside delta, so no session closes before Finish and the
  // emit path never stamps an ingest-to-emit latency.
  std::vector<LogRecord> records;
  for (std::size_t i = 0; i < kRecords; ++i) {
    records.push_back(PageRecord("10.4.0.1", static_cast<std::uint32_t>(i % 5),
                                 kBase + static_cast<TimeSeconds>(i)));
  }
  std::vector<LogRecordRef> batch;
  for (const LogRecord& record : records) batch.push_back(ViewOf(record));
  const std::uint64_t calls_before =
      g_micros_calls.load(std::memory_order_relaxed);
  ASSERT_TRUE((*engine)->OfferBatch(batch).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  ASSERT_FALSE(sink.entries().empty());
  // One accept stamp for the batch, then one drain timer (two reads)
  // per record: a second timer nested inside the drained call would
  // double the per-record reads.
  EXPECT_EQ(g_micros_calls.load(std::memory_order_relaxed) - calls_before,
            2 * kRecords + 1);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const obs::MetricsSnapshot::HistogramValue* drain =
      snapshot.FindHistogram("engine.shard0.drain_latency_us");
  ASSERT_NE(drain, nullptr);
  EXPECT_EQ(drain->count, kRecords);
  const obs::MetricsSnapshot::HistogramValue* latency =
      snapshot.FindHistogram("engine.shard0.ingest_to_emit_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 0u);  // every session left in the Finish flush
}

TEST_F(StreamLatencyTest, WatermarkSurvivesCheckpointAndResume) {
  WebGraph graph = MakeFigure1Topology();
  const fs::path dir = fs::path(testing::TempDir()) / "latency_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr std::size_t kShards = 2;
  constexpr TimeSeconds kBase = 1'200'000'000;
  std::vector<std::uint64_t> saved(kShards, 0);
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions().set_num_shards(kShards).use_smart_sra(&graph),
        &sink);
    ASSERT_TRUE(engine.ok());
    for (std::uint32_t u = 0; u < 8; ++u) {
      ASSERT_TRUE((*engine)
                      ->Offer(PageRecord("10.3.0." + std::to_string(u),
                                         u % 5, kBase + u))
                      .ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(dir.string()).ok());
    for (std::size_t k = 0; k < kShards; ++k) {
      saved[k] = (*engine)->ShardWatermarkSeconds(k);
    }
    // Crash: the engine dies without Finish.
  }
  std::uint64_t saved_max = 0;
  for (const std::uint64_t watermark : saved) {
    if (watermark > saved_max) saved_max = watermark;
  }
  ASSERT_EQ(saved_max, static_cast<std::uint64_t>(kBase + 7));

  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> resumed = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .use_smart_sra(&graph)
          .set_metrics(&registry)
          .resume_from(dir.string()),
      &sink);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ASSERT_TRUE((*resumed)->resumed());
  // The restored watermarks are the checkpointed ones — lag after a
  // restart reflects real event-time progress, not a reset to zero —
  // and the scrape probe sees them before any new record arrives.
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (std::size_t k = 0; k < kShards; ++k) {
    EXPECT_EQ((*resumed)->ShardWatermarkSeconds(k), saved[k]) << "shard " << k;
    EXPECT_EQ(GaugeValue(snapshot, "engine.shard" + std::to_string(k) +
                                       ".watermark_seconds"),
              saved[k]);
  }
  ASSERT_TRUE((*resumed)->Finish().ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wum
