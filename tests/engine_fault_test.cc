// End-to-end failure-domain tests for the sharded StreamEngine: a killed
// shard stays isolated under ErrorPolicy::kDegrade (and stops the world
// under kFailFast, same fault schedule), transient sink faults are
// absorbed by set_retry, exhausted retries become kEmit dead letters,
// and OfferPolicy::kShed sheds deterministically. Every scenario is
// driven by the deterministic fault harness — no wall clock, no races in
// what the assertions observe.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "wum/clf/user_partitioner.h"
#include "wum/mine/path_miner.h"
#include "wum/stream/engine.h"
#include "wum/stream/heuristic_registry.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

LogRecord PageRecord(const std::string& ip, std::uint32_t page,
                     TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return record;
}

/// Emits every request as its own single-page session immediately.
class EmitEverySessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }
};

std::size_t ShardOf(const std::string& ip, std::size_t num_shards) {
  return static_cast<std::size_t>(
      UserHashFor(ip, "", UserIdentity::kClientIp) % num_shards);
}

/// (user, page-sequence) pairs sorted for order-insensitive comparison.
std::vector<std::pair<std::string, std::vector<PageId>>> Canonicalize(
    const CollectingSessionSink& sink) {
  std::vector<std::pair<std::string, std::vector<PageId>>> out;
  for (const auto& entry : sink.entries()) {
    out.emplace_back(entry.client_ip, entry.session.PageSequence());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t EmittedRecords(const CollectingSessionSink& sink) {
  std::uint64_t total = 0;
  for (const auto& entry : sink.entries()) {
    total += entry.session.requests.size();
  }
  return total;
}

/// A Figure-1 page the workloads below never request except where a test
/// plants it: the fault-injecting sessionizer fails exactly those
/// requests, so a test picks the faulting shard by picking the user.
constexpr PageId kPoisonPage = 5;

/// Registry Smart-SRA wrapped in the fault injector (use_custom).
UserSessionizerFactory FaultySmartSra(const WebGraph* graph,
                                      FaultInjectingSessionizer::Mode mode) {
  HeuristicContext context;
  context.graph = graph;
  Result<UserSessionizerFactory> factory =
      HeuristicRegistry::Default().CreateIncremental("smart-sra", context);
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  return FaultInjectingSessionizer::Wrap(std::move(factory).ValueOrDie(),
                                         kPoisonPage, mode);
}

/// EmitEverySessionizer wrapped in the fault injector (use_custom).
UserSessionizerFactory FaultyEmitEvery(FaultInjectingSessionizer::Mode mode) {
  return FaultInjectingSessionizer::Wrap(
      [] { return std::make_unique<EmitEverySessionizer>(); }, kPoisonPage,
      mode);
}

/// 16 users x 5 rounds of page-0 requests, except that user 0's 3rd
/// request is for the poison page.
std::vector<LogRecord> PoisonedRounds() {
  std::vector<LogRecord> records;
  for (int r = 0; r < 5; ++r) {
    for (int u = 0; u < 16; ++u) {
      records.push_back(PageRecord("10.0.0." + std::to_string(u),
                                   u == 0 && r == 2 ? kPoisonPage : 0,
                                   r * 30));
    }
  }
  return records;
}

// The tentpole scenario: one shard is killed mid-stream by an injected
// shard-fatal fault. Under kDegrade the engine finishes OK, every other
// shard's sessions are identical to a fault-free run, and the
// dead-letter accounting covers every record the dead shard swallowed.
TEST(EngineFaultTest, KilledShardStaysIsolatedUnderDegrade) {
  constexpr std::size_t kShards = 4;
  WebGraph graph = MakeFigure1Topology();

  // Kill the shard that hosts user 0, on user 0's 3rd request.
  const std::vector<LogRecord> records = PoisonedRounds();
  const std::size_t kill_shard = ShardOf("10.0.0.0", kShards);

  // Fault-free baseline for the expected output of the healthy shards.
  CollectingSessionSink baseline;
  {
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions().set_num_shards(kShards).use_smart_sra(&graph),
        &baseline);
    ASSERT_TRUE(engine.ok());
    for (const LogRecord& record : records) {
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
    ASSERT_TRUE((*engine)->Finish().ok());
  }

  CollectingSessionSink degraded;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .use_graph(&graph)
          .use_custom(FaultySmartSra(
              &graph, FaultInjectingSessionizer::Mode::kShardFatal)),
      &degraded);
  ASSERT_TRUE(engine.ok());
  // Degraded mode: the producer never sees the shard die.
  for (const LogRecord& record : records) {
    ASSERT_TRUE((*engine)->Offer(record).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Exactly the injected fault killed exactly the targeted shard.
  const std::vector<Status> health = (*engine)->ShardHealth();
  ASSERT_EQ(health.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    if (i == kill_shard) {
      EXPECT_TRUE(health[i].IsInternal()) << health[i].ToString();
    } else {
      EXPECT_TRUE(health[i].ok()) << health[i].ToString();
    }
  }

  // Healthy shards produced byte-identical sessions to the fault-free
  // run; the dead shard produced none (its fault fired before anything
  // could close).
  auto expected = Canonicalize(baseline);
  expected.erase(std::remove_if(expected.begin(), expected.end(),
                                [&](const auto& entry) {
                                  return ShardOf(entry.first, kShards) ==
                                         kill_shard;
                                }),
                 expected.end());
  EXPECT_EQ(Canonicalize(degraded), expected);

  // Conservation: every accepted record is either inside an emitted
  // session or covered by a dead letter — nothing vanishes.
  EXPECT_EQ(EmittedRecords(degraded) + dead_letters.records_covered(),
            records.size());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.dead_letters, dead_letters.records_covered());
  EXPECT_EQ(dead_letters.overflow_dropped(), 0u);

  // Only the dead shard quarantined anything, and the retained letters
  // name it.
  for (const DeadLetter& letter : dead_letters.Drain()) {
    EXPECT_EQ(letter.shard, kill_shard);
    EXPECT_FALSE(letter.reason.ok());
  }
  const std::vector<EngineStats> shards = (*engine)->ShardStats();
  for (std::size_t i = 0; i < kShards; ++i) {
    if (i != kill_shard) {
      EXPECT_EQ(shards[i].dead_letters, 0u) << i;
    }
  }
}

// The same fault schedule under the default kFailFast policy is fatal to
// the whole engine — the pre-existing contract is unchanged.
TEST(EngineFaultTest, SameFaultUnderFailFastStopsTheEngine) {
  constexpr std::size_t kShards = 4;
  WebGraph graph = MakeFigure1Topology();

  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .use_graph(&graph)
          .use_custom(FaultySmartSra(
              &graph, FaultInjectingSessionizer::Mode::kShardFatal)),
      &sessions);
  ASSERT_TRUE(engine.ok());
  Status status;
  for (const LogRecord& record : PoisonedRounds()) {
    status = (*engine)->Offer(record);
    if (!status.ok()) break;
  }
  // Offer may or may not observe the death first (the producer can
  // outrun the worker), but Finish must surface the injected fault.
  if (!status.ok()) {
    EXPECT_TRUE(status.IsInternal()) << status.ToString();
    EXPECT_TRUE((*engine)->Finish().IsInternal());
  } else {
    EXPECT_TRUE((*engine)->Finish().IsInternal());
  }
}

// Sessionizer rejections (record-level errors) quarantine only the record:
// the shard keeps sessionizing everything else, and the drained letters
// arrive in processing order with the offending records attached.
TEST(EngineFaultTest, RejectedRecordsAreDeadLetteredInOrder) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom(
              FaultyEmitEvery(FaultInjectingSessionizer::Mode::kReject)),
      &sessions);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 5; ++i) {
    const PageId page = i == 1 || i == 3 ? kPoisonPage : 0;
    ASSERT_TRUE((*engine)->Offer(PageRecord("u", page, i * 10)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Records 0, 2, 4 sessionized; 1 and 3 quarantined, in order.
  EXPECT_EQ(sessions.entries().size(), 3u);
  std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 2u);
  EXPECT_EQ(letters[0].stage, DeadLetter::Stage::kRecord);
  ASSERT_TRUE(letters[0].record.has_value());
  EXPECT_EQ(letters[0].record->timestamp, 10);
  EXPECT_EQ(letters[0].record->url, PageUrl(kPoisonPage));
  EXPECT_EQ(letters[0].record->client_ip, "u");
  EXPECT_TRUE(letters[0].reason.IsInvalidArgument());
  ASSERT_TRUE(letters[1].record.has_value());
  EXPECT_EQ(letters[1].record->timestamp, 30);
  EXPECT_EQ(letters[1].record->url, PageUrl(kPoisonPage));
  EXPECT_EQ(letters[1].record->client_ip, "u");
  // Conservation again: 3 emitted + 2 quarantined == 5 accepted.
  EXPECT_EQ(EmittedRecords(sessions) + dead_letters.records_covered(), 5u);
  // The shard itself stays healthy: record faults are not shard faults.
  EXPECT_TRUE((*engine)->ShardHealth()[0].ok());
}

/// The in-shard record errors the engine itself raises, without any
/// fault injection: a canonical page id outside the topology, and a
/// timestamp older than the user's previous one.
enum class RecordError { kPageOutOfRange, kOutOfOrder };

/// Shard count x user identity.
class EngineRecordErrorTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, UserIdentity>> {
 protected:
  std::size_t shards() const { return std::get<0>(GetParam()); }
  UserIdentity identity() const { return std::get<1>(GetParam()); }

  static LogRecord AgentRecord(const std::string& ip, const std::string& agent,
                               std::uint32_t page, TimeSeconds timestamp) {
    LogRecord record = PageRecord(ip, page, timestamp);
    record.user_agent = agent;
    return record;
  }

  /// Two users of five records each; `error` plants one bad record in
  /// the second user's stream: page 77 at t=110, or page 2 at t=50.
  static std::vector<LogRecord> Workload(RecordError error) {
    std::vector<LogRecord> records;
    for (int i = 0; i < 5; ++i) {
      records.push_back(AgentRecord("10.0.0.1", "agent-a", 0, 100 + i * 10));
      if (i == 1) {
        records.push_back(error == RecordError::kPageOutOfRange
                              ? AgentRecord("10.0.0.2", "agent-b", 77, 110)
                              : AgentRecord("10.0.0.2", "agent-b", 2, 50));
      } else {
        records.push_back(AgentRecord("10.0.0.2", "agent-b", 1, 100 + i * 10));
      }
    }
    return records;
  }

  Result<std::unique_ptr<StreamEngine>> Create(ErrorPolicy policy,
                                               const WebGraph& graph,
                                               SessionSink* sink,
                                               DeadLetterQueue* letters) {
    return StreamEngine::Create(
        EngineOptions()
            .set_num_shards(shards())
            .set_identity(identity())
            .set_error_policy(policy)
            .set_dead_letters(letters)
            .set_num_pages(graph.num_pages())
            .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
        sink);
  }
};

// Under kDegrade each in-shard record error becomes one kRecord letter
// whose record carries every field the shard read: the user's IP (and
// agent under ip-ua), the page URL and the timestamp.
TEST_P(EngineRecordErrorTest, DegradeDeadLettersTheRecord) {
  WebGraph graph = MakeFigure1Topology();
  for (const RecordError error :
       {RecordError::kPageOutOfRange, RecordError::kOutOfOrder}) {
    CollectingSessionSink sessions;
    DeadLetterQueue dead_letters;
    Result<std::unique_ptr<StreamEngine>> engine =
        Create(ErrorPolicy::kDegrade, graph, &sessions, &dead_letters);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const std::vector<LogRecord> records = Workload(error);
    for (const LogRecord& record : records) {
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
    ASSERT_TRUE((*engine)->Finish().ok());

    const std::vector<DeadLetter> letters = dead_letters.Drain();
    ASSERT_EQ(letters.size(), 1u);
    const DeadLetter& letter = letters[0];
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kRecord);
    EXPECT_TRUE(letter.reason.IsInvalidArgument());
    EXPECT_EQ(letter.shard,
              UserHashFor("10.0.0.2", "agent-b", identity()) % shards());
    ASSERT_TRUE(letter.record.has_value());
    EXPECT_EQ(letter.record->client_ip, "10.0.0.2");
    EXPECT_EQ(letter.record->user_agent,
              identity() == UserIdentity::kClientIpAndUserAgent ? "agent-b"
                                                                : "");
    if (error == RecordError::kPageOutOfRange) {
      EXPECT_EQ(letter.record->url, PageUrl(77));
      EXPECT_EQ(letter.record->timestamp, 110);
    } else {
      EXPECT_EQ(letter.record->url, PageUrl(2));
      EXPECT_EQ(letter.record->timestamp, 50);
    }
    for (const Status& health : (*engine)->ShardHealth()) {
      EXPECT_TRUE(health.ok()) << health.ToString();
    }
    // Conservation: 9 emitted + 1 quarantined == 10 accepted.
    EXPECT_EQ(EmittedRecords(sessions), records.size() - 1);
    EXPECT_EQ(EmittedRecords(sessions) + dead_letters.records_covered(),
              records.size());
    EXPECT_EQ((*engine)->TotalStats().dead_letters, 1u);
  }
}

// Under kFailFast each in-shard record error is sticky: Finish returns
// it. The out-of-order message names the whole user key, since under
// ip-ua two agents behind one proxy share an IP.
TEST_P(EngineRecordErrorTest, FailFastStopsWithInvalidArgument) {
  WebGraph graph = MakeFigure1Topology();
  for (const RecordError error :
       {RecordError::kPageOutOfRange, RecordError::kOutOfOrder}) {
    CollectingSessionSink sessions;
    Result<std::unique_ptr<StreamEngine>> engine =
        Create(ErrorPolicy::kFailFast, graph, &sessions, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const LogRecord& record : Workload(error)) {
      // The sticky error may surface at Offer once the worker has seen
      // the bad record; Finish must return it either way.
      if (!(*engine)->Offer(record).ok()) break;
    }
    const Status status = (*engine)->Finish();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    if (error == RecordError::kOutOfOrder) {
      EXPECT_NE(status.message().find("10.0.0.2"), std::string::npos)
          << status.message();
      if (identity() == UserIdentity::kClientIpAndUserAgent) {
        EXPECT_NE(status.message().find("agent-b"), std::string::npos)
            << status.message();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndIdentity, EngineRecordErrorTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{3}),
                       ::testing::Values(UserIdentity::kClientIp,
                                         UserIdentity::kClientIpAndUserAgent)));

// set_retry absorbs transient sink faults: with the flaky sink failing
// on scheduled calls, every session still arrives and the retry counters
// (and the injected backoff ladder) show exactly the configured policy.
TEST(EngineFaultTest, RetryingSinkAbsorbsTransientSinkFaults) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  // Emissions are serialized through the emit hub, so FlakySink call
  // indices are global: a failure's immediate successor call is its
  // retry. Indices 0 and 5 fail; the retries (calls 1 and 6) succeed.
  FlakySink flaky(&collected, FaultSchedule::AtIndices({0, 5}));
  std::vector<std::chrono::microseconds> slept;
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::microseconds(1000);
  retry.sleep = [&slept](std::chrono::microseconds delay) {
    slept.push_back(delay);
  };
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_retry(retry)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &flaky);
  ASSERT_TRUE(engine.ok());
  for (int u = 0; u < 10; ++u) {
    ASSERT_TRUE(
        (*engine)->Offer(PageRecord("10.0.0." + std::to_string(u), 0, 0)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // All 10 sessions delivered despite 2 scheduled faults; each fault
  // cost exactly one retry with the deterministic first-step backoff.
  EXPECT_EQ(collected.entries().size(), 10u);
  EXPECT_EQ((*engine)->TotalStats().retries, 2u);
  EXPECT_EQ((*engine)->TotalStats().sessions_emitted, 10u);
  EXPECT_EQ(flaky.failures(), 2u);
  EXPECT_EQ(slept, (std::vector<std::chrono::microseconds>{
                       std::chrono::microseconds(1000),
                       std::chrono::microseconds(1000)}));
}

// When the sink stays down past max_attempts in kDegrade mode, the
// refused sessions become kEmit dead letters (covering their records)
// and the engine still finishes OK with healthy shards.
TEST(EngineFaultTest, ExhaustedRetriesBecomeEmitDeadLetters) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  FlakySink flaky(&collected, FaultSchedule::Always(),
                  Status::IoError("sink down"));
  DeadLetterQueue dead_letters;
  RetryOptions retry;
  retry.max_attempts = 2;
  retry.sleep = [](std::chrono::microseconds) {};
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_retry(retry)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &flaky);
  ASSERT_TRUE(engine.ok());
  for (int u = 0; u < 4; ++u) {
    ASSERT_TRUE(
        (*engine)->Offer(PageRecord("10.0.0." + std::to_string(u), 0, 0)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Nothing delivered; every session quarantined at the emit stage with
  // one retry spent on each; the shards themselves never died.
  EXPECT_TRUE(collected.entries().empty());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.sessions_emitted, 0u);
  EXPECT_EQ(total.retries, 4u);
  EXPECT_EQ(total.dead_letters, 4u);
  std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 4u);
  for (const DeadLetter& letter : letters) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kEmit);
    EXPECT_TRUE(letter.reason.IsIoError());
    EXPECT_EQ(letter.records_covered, 1u);
    EXPECT_FALSE(letter.detail.empty());  // the user key of the session
  }
  for (const Status& health : (*engine)->ShardHealth()) {
    EXPECT_TRUE(health.ok());
  }
}

// Only sessions the sink finally accepted are mined: under kDegrade a
// refused session is quarantined and never counted, and under set_retry
// a session whose first attempt fails is mined once, on the retry that
// delivers it, so estimates cannot be inflated by re-offers.
TEST(EngineFaultTest, FailingDownstreamSkipsMining) {
  WebGraph graph = MakeFigure1Topology();
  // Eight users each walk P1 -> P13 -> P34: one three-page session each.
  std::vector<LogRecord> records;
  for (int u = 0; u < 8; ++u) {
    for (const PageId page : {0, 1, 4}) {
      records.push_back(PageRecord("10.0.0." + std::to_string(u), page,
                                   static_cast<TimeSeconds>(page) * 10));
    }
  }
  const auto options = [&graph] {
    return EngineOptions()
        .set_num_shards(2)
        .use_smart_sra(&graph)
        .set_mining(mine::MinerOptions{});
  };
  {
    SCOPED_TRACE("kDegrade, refusing sink");
    CollectingSessionSink collected;
    FlakySink refusing(&collected, FaultSchedule::Always());
    DeadLetterQueue dead_letters;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        options()
            .set_error_policy(ErrorPolicy::kDegrade)
            .set_dead_letters(&dead_letters),
        &refusing);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    for (const LogRecord& record : records) {
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
    ASSERT_TRUE((*engine)->Finish().ok());
    EXPECT_EQ((*engine)->TotalStats().dead_letters, records.size());
    EXPECT_EQ((*engine)->mining()->sessions_seen(), 0u);
    EXPECT_TRUE((*engine)->mining()->TopK(10).empty());
  }
  {
    SCOPED_TRACE("set_retry, first attempt of every session fails");
    CollectingSessionSink collected;
    // Emissions are serialized through the emit hub, so a failure's
    // retry is the next call: failing every even call fails exactly
    // each session's first attempt.
    std::vector<std::uint64_t> first_attempts;
    for (std::uint64_t i = 0; i < 16; i += 2) first_attempts.push_back(i);
    FlakySink flaky(&collected, FaultSchedule::AtIndices(first_attempts));
    RetryOptions retry;
    retry.max_attempts = 2;
    retry.sleep = [](std::chrono::microseconds) {};
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(options().set_retry(retry), &flaky);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    for (const LogRecord& record : records) {
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
    ASSERT_TRUE((*engine)->Finish().ok());
    const EngineStats total = (*engine)->TotalStats();
    EXPECT_EQ(total.sessions_emitted, 8u);
    EXPECT_EQ(total.retries, 8u);
    EXPECT_EQ((*engine)->mining()->sessions_seen(), total.sessions_emitted);
    const std::vector<mine::PatternEstimate> pairs =
        (*engine)->mining()->TopK(10, 2);
    ASSERT_EQ(pairs.size(), 2u);
    for (const mine::PatternEstimate& pair : pairs) {
      EXPECT_EQ(pair.count, 8u);  // once per delivered session
    }
  }
}

/// Sessionizer that parks the worker on its first record until the test
/// releases it — the deterministic way to hold a shard queue full.
class GateSessionizer : public IncrementalUserSessionizer {
 public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;

    void WaitEntered() {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this] { return entered; });
    }
    void Release() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
      }
      cv.notify_all();
    }
  };

  explicit GateSessionizer(Gate* gate) : gate_(gate) {}

  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    if (first_) {
      first_ = false;
      std::unique_lock<std::mutex> lock(gate_->mutex);
      gate_->entered = true;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [this] { return gate_->released; });
    }
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }

 private:
  Gate* gate_;
  bool first_ = true;
};

// OfferPolicy::kShed drops (and counts) records instead of blocking when
// a shard queue is full. The gate makes "full" deterministic: the worker
// is parked inside record 0, record 1 fills the capacity-1 queue, so
// records 2 and 3 must shed.
TEST(EngineFaultTest, ShedPolicyDropsAndCountsWhenQueueIsFull) {
  WebGraph graph = MakeFigure1Topology();
  GateSessionizer::Gate gate;
  CollectingSessionSink sessions;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_queue_capacity(1)
          .set_offer_policy(OfferPolicy::kShed)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom([&gate] { return std::make_unique<GateSessionizer>(&gate); }),
      &sessions);
  ASSERT_TRUE(engine.ok());

  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  gate.WaitEntered();  // the worker holds record 0; the queue is empty
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 1, 10)).ok());  // fills it
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 2, 20)).ok());  // sheds
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 3, 30)).ok());  // sheds
  gate.Release();
  ASSERT_TRUE((*engine)->Finish().ok());

  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.records_in, 2u);
  EXPECT_EQ(total.records_shed, 2u);
  EXPECT_EQ(sessions.entries().size(), 2u);
  // Shedding is load management, not a failure: nothing is dead-lettered.
  EXPECT_EQ(dead_letters.total_offered(), 0u);
}

// Away from overload the two offer policies are equivalent: identical
// sessions, zero shed.
TEST(EngineFaultTest, ShedEqualsBlockWithoutBackpressure) {
  WebGraph graph = MakeFigure1Topology();
  auto run = [&graph](OfferPolicy policy, CollectingSessionSink* sink) {
    // kShed requires a dead-letter budget since EngineOptions::Validate;
    // attach one to both runs so the only difference is the policy.
    DeadLetterQueue dead_letters;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions()
            .set_num_shards(2)
            .set_offer_policy(policy)
            .set_dead_letters(&dead_letters)
            .use_smart_sra(&graph),
        sink);
    ASSERT_TRUE(engine.ok());
    for (int u = 0; u < 8; ++u) {
      for (int r = 0; r < 4; ++r) {
        ASSERT_TRUE((*engine)
                        ->Offer(PageRecord("10.0.0." + std::to_string(u), 0,
                                           r * 30))
                        .ok());
      }
    }
    ASSERT_TRUE((*engine)->Finish().ok());
    EXPECT_EQ((*engine)->TotalStats().records_shed, 0u);
  };
  CollectingSessionSink blocked;
  CollectingSessionSink shed;
  run(OfferPolicy::kBlock, &blocked);
  run(OfferPolicy::kShed, &shed);
  EXPECT_EQ(Canonicalize(blocked), Canonicalize(shed));
}

// Records offered to a shard that already died are themselves
// quarantined (stage kShardDead) instead of failing the producer.
TEST(EngineFaultTest, OffersToDeadShardAreQuarantined) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom(
              FaultyEmitEvery(FaultInjectingSessionizer::Mode::kShardFatal)),
      &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", kPoisonPage, 0)).ok());
  // Wait until the (only) shard has died, then keep offering: the
  // records must be absorbed as dead letters, never surfaced as errors.
  while ((*engine)->ShardHealth()[0].ok()) {
    std::this_thread::yield();
  }
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 1, 10)).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 2, 20)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());

  EXPECT_TRUE(sessions.entries().empty());
  EXPECT_EQ(dead_letters.records_covered(), 3u);
  std::vector<DeadLetter> letters = dead_letters.Drain();
  for (const DeadLetter& letter : letters) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kShardDead);
  }
}

}  // namespace
}  // namespace wum
