// wum::obs metrics: registry semantics, concurrent counting, snapshot
// determinism and the JSON export format.

#include "wum/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace wum {
namespace obs {
namespace {

std::atomic<std::uint64_t> g_clock_calls{0};

double CountingClock() {
  g_clock_calls.fetch_add(1, std::memory_order_relaxed);
  return 123.0;
}

/// Counts clock reads for the duration of a test, restoring the real
/// steady clock on exit.
struct ClockGuard {
  ClockGuard() {
    g_clock_calls.store(0);
    internal::SetClockForTesting(&CountingClock);
  }
  ~ClockGuard() { internal::SetClockForTesting(nullptr); }
};

TEST(ObsHandlesTest, DefaultConstructedHandlesAreDisabledNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  EXPECT_FALSE(counter.enabled());
  EXPECT_FALSE(gauge.enabled());
  EXPECT_FALSE(histogram.enabled());
  // None of these may crash or record anything.
  counter.Increment();
  counter.Increment(42);
  gauge.Set(7);
  gauge.MaxOf(9);
  histogram.Observe(1.5);
  { ScopedTimer timer(histogram); }
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0u);
}

TEST(ObsHandlesTest, NullRegistryHelpersReturnDisabledHandles) {
  EXPECT_FALSE(CounterIn(nullptr, "a").enabled());
  EXPECT_FALSE(GaugeIn(nullptr, "b").enabled());
  EXPECT_FALSE(HistogramIn(nullptr, "c").enabled());
}

TEST(MetricRegistryTest, CounterBasics) {
  MetricRegistry registry;
  Counter counter = registry.GetCounter("x");
  EXPECT_TRUE(counter.enabled());
  counter.Increment();
  counter.Increment(9);
  EXPECT_EQ(counter.value(), 10u);
  // Same name -> same cell.
  Counter again = registry.GetCounter("x");
  again.Increment();
  EXPECT_EQ(counter.value(), 11u);
}

TEST(MetricRegistryTest, GaugeSetAndMaxOf) {
  MetricRegistry registry;
  Gauge gauge = registry.GetGauge("depth");
  gauge.Set(5);
  EXPECT_EQ(gauge.value(), 5u);
  gauge.MaxOf(3);  // smaller: no change
  EXPECT_EQ(gauge.value(), 5u);
  gauge.MaxOf(8);
  EXPECT_EQ(gauge.value(), 8u);
}

TEST(MetricRegistryTest, HistogramBucketsAndStats) {
  MetricRegistry registry;
  Histogram histogram = registry.GetHistogram("lat", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0 (<= 1)
  histogram.Observe(5.0);    // bucket 1 (<= 10)
  histogram.Observe(50.0);   // bucket 2 (<= 100)
  histogram.Observe(500.0);  // overflow bucket
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::HistogramValue* value =
      snapshot.FindHistogram("lat");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 4u);
  ASSERT_EQ(value->counts.size(), 4u);
  EXPECT_EQ(value->counts[0], 1u);
  EXPECT_EQ(value->counts[1], 1u);
  EXPECT_EQ(value->counts[2], 1u);
  EXPECT_EQ(value->counts[3], 1u);
  EXPECT_DOUBLE_EQ(value->sum, 555.5);
  EXPECT_DOUBLE_EQ(value->min, 0.5);
  EXPECT_DOUBLE_EQ(value->max, 500.0);
  EXPECT_DOUBLE_EQ(value->mean(), 555.5 / 4.0);
}

TEST(MetricRegistryTest, EmptyHistogramNormalizesMinMaxToZero) {
  MetricRegistry registry;
  (void)registry.GetHistogram("empty");
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::HistogramValue* value =
      snapshot.FindHistogram("empty");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 0u);
  EXPECT_DOUBLE_EQ(value->min, 0.0);
  EXPECT_DOUBLE_EQ(value->max, 0.0);
  EXPECT_DOUBLE_EQ(value->mean(), 0.0);
}

TEST(MetricRegistryTest, QuantilesInterpolateWithinBuckets) {
  MetricRegistry registry;
  // 10 observations 0..9, all in the single finite bucket (<= 10):
  // rank q*10 lands fraction q through [min=0, upper clamped to max=9].
  Histogram histogram = registry.GetHistogram("lat", {10.0});
  for (int i = 0; i < 10; ++i) histogram.Observe(static_cast<double>(i));
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::HistogramValue* value =
      snapshot.FindHistogram("lat");
  ASSERT_NE(value, nullptr);
  EXPECT_DOUBLE_EQ(value->Quantile(0.5), 4.5);
  EXPECT_DOUBLE_EQ(value->p50(), 4.5);
  EXPECT_DOUBLE_EQ(value->p90(), 8.1);
  EXPECT_DOUBLE_EQ(value->Quantile(0.0), 0.0);   // q <= 0 -> min
  EXPECT_DOUBLE_EQ(value->Quantile(1.0), 9.0);   // q >= 1 -> max
  // Estimates are monotone in q and clamped to the observed range.
  EXPECT_LE(value->p50(), value->p90());
  EXPECT_LE(value->p90(), value->p99());
  EXPECT_LE(value->p99(), value->max);
}

TEST(MetricRegistryTest, QuantilesSpanMultipleBuckets) {
  MetricRegistry registry;
  Histogram histogram = registry.GetHistogram("multi", {10.0, 100.0});
  // 8 low observations and 2 high ones: p50 sits in the first bucket,
  // p90 in the second, p99 clamped to the max.
  for (int i = 0; i < 8; ++i) histogram.Observe(5.0);
  histogram.Observe(50.0);
  histogram.Observe(60.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::HistogramValue* value =
      snapshot.FindHistogram("multi");
  ASSERT_NE(value, nullptr);
  EXPECT_GT(value->p50(), 0.0);
  EXPECT_LE(value->p50(), 10.0);
  EXPECT_GT(value->p90(), 10.0);   // second bucket
  EXPECT_LE(value->p99(), 60.0);   // clamped to max
}

TEST(MetricRegistryTest, QuantilesHandleEmptyAndOverflow) {
  MetricRegistry registry;
  (void)registry.GetHistogram("empty", {1.0});
  Histogram overflow = registry.GetHistogram("over", {1.0});
  overflow.Observe(500.0);  // overflow bucket only
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::HistogramValue* empty =
      snapshot.FindHistogram("empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_DOUBLE_EQ(empty->p50(), 0.0);
  const MetricsSnapshot::HistogramValue* over = snapshot.FindHistogram("over");
  ASSERT_NE(over, nullptr);
  // A single overflow observation: every estimate is that value (the
  // unbounded bucket's upper edge tightens to the observed max).
  EXPECT_DOUBLE_EQ(over->p50(), 500.0);
  EXPECT_DOUBLE_EQ(over->p99(), 500.0);
}

// N threads hammering one shared counter must lose no increment — the
// lock-free hot path is the whole point of the registry design.
TEST(MetricRegistryTest, ConcurrentCountingIsExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  MetricRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Each thread registers by name: same cell, no coordination.
      Counter counter = registry.GetCounter("shared");
      Histogram histogram = registry.GetHistogram("shared_lat");
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        counter.Increment();
        histogram.Observe(static_cast<double>(i % 7));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOrZero("shared"),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
  const MetricsSnapshot::HistogramValue* lat =
      snapshot.FindHistogram("shared_lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count,
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

// N threads racing to register the same names: every GetCounter for a
// name must resolve to the same cell (no lost registrations, no
// duplicate cells), exercising the registry's registration lock.
TEST(MetricRegistryTest, ConcurrentRegistrationResolvesToOneCell) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  constexpr int kNames = 5;
  MetricRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kRounds; ++i) {
        // Re-register by name every round from every thread.
        registry.GetCounter("reg." + std::to_string(i % kNames)).Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), static_cast<std::size_t>(kNames));
  std::uint64_t total = 0;
  for (const auto& counter : snapshot.counters) total += counter.value;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kRounds);
}

TEST(ScopedTimerTest, DisabledTimerNeverReadsTheClock) {
  ClockGuard clock;
  {
    ScopedTimer timer(Histogram{});  // disabled handle
  }
  EXPECT_EQ(g_clock_calls.load(), 0u);
  MetricRegistry registry;
  {
    ScopedTimer timer(registry.GetHistogram("t"));
  }
  // Enabled: exactly one read at construction, one at destruction.
  EXPECT_EQ(g_clock_calls.load(), 2u);
}

TEST(MetricsSnapshotTest, DeterministicOrderAndRendering) {
  MetricRegistry registry;
  registry.GetCounter("zeta").Increment(3);
  registry.GetCounter("alpha").Increment(1);
  registry.GetGauge("mid").Set(2);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");  // sorted by name
  EXPECT_EQ(snapshot.counters[1].name, "zeta");
  // Same registry state -> byte-identical renderings.
  EXPECT_EQ(snapshot.ToJson(), registry.Snapshot().ToJson());
}

TEST(MetricsSnapshotTest, CounterSumByPrefix) {
  MetricRegistry registry;
  registry.GetCounter("engine.shard0.records_in").Increment(10);
  registry.GetCounter("engine.shard1.records_in").Increment(20);
  registry.GetCounter("clf.lines_seen").Increment(99);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterSumByPrefix("engine.shard"), 30u);
  EXPECT_EQ(snapshot.CounterSumByPrefix("clf."), 99u);
  EXPECT_EQ(snapshot.CounterSumByPrefix("nope"), 0u);
}

TEST(MetricsSnapshotTest, JsonContainsAllKinds) {
  MetricRegistry registry;
  registry.GetCounter("c").Increment(1);
  registry.GetGauge("g").Set(2);
  registry.GetHistogram("h", {1.0}).Observe(0.5);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"g\": 2"), std::string::npos);
  EXPECT_NE(json.find("+Inf"), std::string::npos);  // overflow bucket
}

TEST(MetricsSnapshotTest, JsonIncludesQuantiles) {
  MetricRegistry registry;
  Histogram histogram = registry.GetHistogram("lat", {10.0});
  for (int i = 0; i < 10; ++i) histogram.Observe(static_cast<double>(i));
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"p50\": 4.5"), std::string::npos);
  EXPECT_NE(json.find("\"p90\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
}

TEST(MetricsSnapshotTest, ToJsonLineIsOneCompactLine) {
  MetricRegistry registry;
  registry.GetCounter("c").Increment(3);
  registry.GetHistogram("h", {1.0}).Observe(0.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string line = snapshot.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"counters\": {\"c\": 3}"), std::string::npos);
  EXPECT_NE(line.find("\"histograms\": "), std::string::npos);
}

TEST(MetricsSnapshotTest, WriteMetricsFileAlwaysWritesJson) {
  MetricRegistry registry;
  registry.GetCounter("c").Increment(5);
  const MetricsSnapshot snapshot = registry.Snapshot();

  // The path's suffix does not choose a format: a ".csv" name gets the
  // same JSON as any other.
  for (const char* name : {"obs_metrics_test.json",
                           "obs_metrics_test.csv"}) {
    const std::string path = testing::TempDir() + name;
    ASSERT_TRUE(WriteMetricsFile(snapshot, path).ok());
    std::stringstream content;
    content << std::ifstream(path).rdbuf();
    EXPECT_EQ(content.str(), snapshot.ToJson()) << name;
    std::remove(path.c_str());
  }
}

TEST(ScopedTimerTest, RecordsElapsedMicroseconds) {
  MetricRegistry registry;
  Histogram histogram = registry.GetHistogram("t");
  {
    ScopedTimer timer(histogram);
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::HistogramValue* value = snapshot.FindHistogram("t");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 1u);
  EXPECT_GE(value->sum, 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace wum
