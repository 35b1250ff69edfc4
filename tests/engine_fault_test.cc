// End-to-end tests of the sharded StreamEngine's failure rule (see
// IsShardFatal): an infrastructure error — a shard-fatal record, a sink
// IoError, a failed flush — stops the engine under either ErrorPolicy;
// under kDegrade data errors become kRecord / kEmit dead letters while
// every shard keeps going; OfferPolicy::kShed sheds deterministically.
// Every scenario is driven by the deterministic fault harness — no wall
// clock, no races in what the assertions observe.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "rule_user_sessionizer.h"
#include "wum/clf/user_partitioner.h"
#include "wum/mine/path_miner.h"
#include "wum/session/smart_sra.h"
#include "wum/stream/engine.h"
#include "wum/stream/fault.h"
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

/// The registry's Smart-SRA rule wrapped in the fault injector
/// (use_custom).
UserSessionizerFactory FaultySmartSra(const WebGraph* graph,
                                      FaultInjectingSessionizer::Mode mode) {
  return FaultInjectingSessionizer::Wrap(
      RuleUserSessionizers(SmartSraRule(graph, SmartSra::Options())),
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

/// EmitEverySessionizer whose end-of-stream flush fails with IoError.
class FailingFlushSessionizer : public EmitEverySessionizer {
 public:
  Status Flush(const EmitFn&) override {
    return Status::IoError("injected flush fault");
  }
};

/// The three places an infrastructure error can come from.
enum class StopSource {
  kPoisonPage,   // the sessionizer fails a record with Internal
  kSinkIoError,  // the caller's sink refuses a session with IoError
  kFlush,        // a shard's end-of-stream flush fails with IoError
};

std::string StopCaseName(ErrorPolicy policy, StopSource source) {
  const std::string name =
      policy == ErrorPolicy::kFailFast ? "FailFast" : "Degrade";
  switch (source) {
    case StopSource::kPoisonPage:
      return name + "PoisonPage";
    case StopSource::kSinkIoError:
      return name + "SinkIoError";
    case StopSource::kFlush:
      return name + "Flush";
  }
  return name;
}

/// Error policy x infrastructure error source.
class EngineStopRuleTest
    : public ::testing::TestWithParam<std::tuple<ErrorPolicy, StopSource>> {
 protected:
  ErrorPolicy policy() const { return std::get<0>(GetParam()); }
  StopSource source() const { return std::get<1>(GetParam()); }
};

// The failure rule, infrastructure half: whichever shard meets the
// error, under either policy the engine stops. The error is sticky — the
// next Checkpoint, OfferBatch (for a user of any shard) and Finish all
// return it — and it writes no dead letter.
TEST_P(EngineStopRuleTest, InfrastructureErrorStopsTheEngine) {
  constexpr std::size_t kShards = 4;
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  // Only the sink-error case fails: the third session it is offered.
  FlakySink sink(&collected,
                 source() == StopSource::kSinkIoError
                     ? FaultSchedule::AtIndices({2})
                     : FaultSchedule::Never(),
                 Status::IoError("injected sink fault"));
  UserSessionizerFactory sessionizers;
  Status expected;
  switch (source()) {
    case StopSource::kPoisonPage:
      sessionizers = FaultySmartSra(
          &graph, FaultInjectingSessionizer::Mode::kShardFatal);
      expected = Status::Internal("injected shard fault");
      break;
    case StopSource::kSinkIoError:
      sessionizers = [] { return std::make_unique<EmitEverySessionizer>(); };
      expected = Status::IoError("injected sink fault");
      break;
    case StopSource::kFlush:
      sessionizers = [] { return std::make_unique<FailingFlushSessionizer>(); };
      expected = Status::IoError("injected flush fault");
      break;
  }
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .set_error_policy(policy())
          .set_dead_letters(&dead_letters)
          .use_graph(&graph)
          .use_custom(std::move(sessionizers)),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto expect_stop = [&expected](const Status& status) {
    EXPECT_EQ(status.ToString(), expected.ToString());
  };

  // PoisonedRounds plants the poison page in user 0's third request; the
  // other sources never request it.
  for (const LogRecord& record : PoisonedRounds()) {
    // The producer may outrun the failing shard, or already see the
    // error here.
    const Status status = (*engine)->Offer(record);
    if (status.ok()) continue;
    expect_stop(status);
    break;
  }
  if (source() != StopSource::kFlush) {
    // The checkpoint barrier waits for the failing shard, so from here
    // on the error is certain.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("engine_stop_rule_" + StopCaseName(policy(), source()));
    std::filesystem::remove_all(dir);
    expect_stop((*engine)->Checkpoint(dir.string()));
    EXPECT_FALSE(std::filesystem::exists(dir / "CURRENT"));
    std::filesystem::remove_all(dir);
    // A user no offer has touched yet, so maybe on a healthy shard.
    expect_stop((*engine)->Offer(PageRecord("10.0.0.99", 0, 1000)));
  }
  expect_stop((*engine)->Finish());

  // The stop writes no dead letter, and the shard that met the error
  // reports it.
  EXPECT_EQ(dead_letters.total_offered(), 0u);
  EXPECT_EQ((*engine)->TotalStats().dead_letters, 0u);
  bool reported = false;
  for (const Status& health : (*engine)->ShardHealth()) {
    if (health.ToString() == expected.ToString()) reported = true;
  }
  EXPECT_TRUE(reported);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAndSource, EngineStopRuleTest,
    ::testing::Combine(::testing::Values(ErrorPolicy::kFailFast,
                                         ErrorPolicy::kDegrade),
                       ::testing::Values(StopSource::kPoisonPage,
                                         StopSource::kSinkIoError,
                                         StopSource::kFlush)),
    [](const ::testing::TestParamInfo<EngineStopRuleTest::ParamType>& info) {
      return StopCaseName(std::get<0>(info.param), std::get<1>(info.param));
    });

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

/// Holds a user's requests open; Flush emits them as one session, or
/// fails with OutOfRange (a data error, like a phase-2 candidate
/// overflow) when the user requested the poison page.
class OverflowOnFlushSessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest& request, const EmitFn&) override {
    open_.requests.push_back(request);
    return Status::OK();
  }
  Status Flush(const EmitFn& emit) override {
    for (const PageRequest& request : open_.requests) {
      if (request.page == kPoisonPage) {
        return Status::OutOfRange("injected candidate overflow");
      }
    }
    if (open_.empty()) return Status::OK();
    return emit(std::move(open_));
  }

 private:
  Session open_;
};

// A failed flush costs only its user: under kDegrade the user flushed
// first fails with a data error, every later user of the shard still
// gets its session, and the open-state letter covers only the failing
// user's records.
TEST(EngineFaultTest, FailedFlushCostsOnlyItsUser) {
  WebGraph graph = MakeFigure1Topology();
  DeadLetterQueue dead_letters;
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom(
              [] { return std::make_unique<OverflowOnFlushSessionizer>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // The failing user is seen first, so it is flushed first.
  std::vector<LogRecord> records = {PageRecord("10.0.0.0", kPoisonPage, 0),
                                    PageRecord("10.0.0.0", 0, 10),
                                    PageRecord("10.0.0.0", 1, 20)};
  for (int u = 1; u <= 5; ++u) {
    const std::string ip = "10.0.0." + std::to_string(u);
    records.push_back(PageRecord(ip, 0, 30 + u));
    records.push_back(PageRecord(ip, 1, 60 + u));
  }
  for (const LogRecord& record : records) {
    ASSERT_TRUE((*engine)->Offer(record).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  ASSERT_EQ(sessions.entries().size(), 5u);
  for (const auto& entry : sessions.entries()) {
    EXPECT_NE(entry.client_ip, "10.0.0.0");
    EXPECT_EQ(entry.session.PageSequence(), (std::vector<PageId>{0, 1}));
  }
  std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].stage, DeadLetter::Stage::kShardDead);
  EXPECT_EQ(letters[0].records_covered, 3u);
  EXPECT_TRUE(letters[0].reason.IsOutOfRange())
      << letters[0].reason.ToString();
  // Conservation: 10 emitted + 3 in the open-state letter == 13 accepted.
  EXPECT_EQ(EmittedRecords(sessions) + dead_letters.records_covered(),
            records.size());
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

// Under kDegrade a session the sink refuses with a data error becomes
// one kEmit dead letter covering its records; the shards stay healthy
// and Finish returns OK.
TEST(EngineFaultTest, RefusedSessionsBecomeEmitDeadLetters) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  FlakySink refusing(&collected, FaultSchedule::Always(),
                     Status::InvalidArgument("session refused"));
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &refusing);
  ASSERT_TRUE(engine.ok());
  for (int u = 0; u < 4; ++u) {
    ASSERT_TRUE(
        (*engine)->Offer(PageRecord("10.0.0." + std::to_string(u), 0, 0)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Nothing delivered; every session quarantined at the emit stage; the
  // shards themselves never stopped.
  EXPECT_TRUE(collected.entries().empty());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.sessions_emitted, 0u);
  EXPECT_EQ(total.dead_letters, 4u);
  // Conservation: 0 emitted + 4 quarantined == 4 accepted.
  EXPECT_EQ(EmittedRecords(collected) + dead_letters.records_covered(), 4u);
  std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 4u);
  for (const DeadLetter& letter : letters) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kEmit);
    EXPECT_TRUE(letter.reason.IsInvalidArgument());
    EXPECT_EQ(letter.records_covered, 1u);
    EXPECT_FALSE(letter.detail.empty());  // the user key of the session
  }
  for (const Status& health : (*engine)->ShardHealth()) {
    EXPECT_TRUE(health.ok());
  }
}

// Only sessions the sink accepted are mined: under kDegrade a refused
// session is quarantined and never counted, so estimates cannot be
// inflated by sessions that never reached the sink.
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
        .set_mining(mine::MinerOptions{})
        .set_error_policy(ErrorPolicy::kDegrade);
  };
  {
    SCOPED_TRACE("refusing sink");
    CollectingSessionSink collected;
    FlakySink refusing(&collected, FaultSchedule::Always(),
                       Status::InvalidArgument("session refused"));
    DeadLetterQueue dead_letters;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        options().set_dead_letters(&dead_letters), &refusing);
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
    SCOPED_TRACE("sink refusing every other session");
    CollectingSessionSink collected;
    // Emissions are serialized through the emit hub, so the schedule's
    // call indices are global: every even call fails.
    FlakySink flaky(&collected, FaultSchedule::EveryNth(2),
                    Status::InvalidArgument("session refused"));
    DeadLetterQueue dead_letters;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        options().set_dead_letters(&dead_letters), &flaky);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    for (const LogRecord& record : records) {
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
    ASSERT_TRUE((*engine)->Finish().ok());
    const EngineStats total = (*engine)->TotalStats();
    EXPECT_EQ(total.sessions_emitted, 4u);
    EXPECT_EQ(dead_letters.total_offered(), 4u);
    EXPECT_EQ((*engine)->mining()->sessions_seen(), total.sessions_emitted);
    const std::vector<mine::PatternEstimate> pairs =
        (*engine)->mining()->TopK(10, 2);
    ASSERT_EQ(pairs.size(), 2u);
    for (const mine::PatternEstimate& pair : pairs) {
      EXPECT_EQ(pair.count, 4u);  // once per delivered session
    }
  }
}

/// Ten page-0 records of ten users, offered as one batch: one shard
/// running EmitEverySessionizer closes all ten sessions in one run.
Status OfferTenUsersAsOneBatch(StreamEngine* engine) {
  std::vector<LogRecord> records;
  for (int u = 0; u < 10; ++u) {
    records.push_back(PageRecord("10.0.0." + std::to_string(u), 0, u));
  }
  std::vector<LogRecordRef> refs;
  for (const LogRecord& record : records) refs.push_back(ViewOf(record));
  return engine->OfferBatch(refs);
}

// A sink that stops the engine in the middle of a run stops delivery
// there: the sessions after the failing one never reach the sink, the
// shard reports the error and Finish returns it.
TEST(EngineFaultTest, SinkErrorInARunStopsDeliveryThere) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  FlakySink sink(&collected, FaultSchedule::AtIndices({2}),
                 Status::IoError("injected sink fault"));
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // The batch drains on this thread, so the call itself returns OK and
  // the error is sticky from here on.
  ASSERT_TRUE(OfferTenUsersAsOneBatch(engine->get()).ok());

  ASSERT_EQ(collected.entries().size(), 2u);
  EXPECT_EQ(collected.entries()[0].client_ip, "10.0.0.0");
  EXPECT_EQ(collected.entries()[1].client_ip, "10.0.0.1");
  EXPECT_EQ(sink.failures(), 1u);
  EXPECT_EQ((*engine)->TotalStats().sessions_emitted, 2u);
  EXPECT_TRUE((*engine)->ShardHealth()[0].IsIoError())
      << (*engine)->ShardHealth()[0].ToString();
  EXPECT_TRUE((*engine)->Offer(PageRecord("10.0.0.99", 0, 100)).IsIoError());
  EXPECT_TRUE((*engine)->Finish().IsIoError());
  EXPECT_EQ(collected.entries().size(), 2u);
}

// Under kDegrade a data error on one session of a run costs only that
// session: one kEmit letter, every other session of the run delivered.
TEST(EngineFaultTest, RefusedSessionInARunBecomesOneEmitLetter) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  FlakySink sink(&collected, FaultSchedule::AtIndices({2}),
                 Status::InvalidArgument("session refused"));
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(OfferTenUsersAsOneBatch(engine->get()).ok());
  ASSERT_TRUE((*engine)->Finish().ok());

  EXPECT_EQ(collected.entries().size(), 9u);
  for (const auto& entry : collected.entries()) {
    EXPECT_NE(entry.client_ip, "10.0.0.2");
  }
  const std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].stage, DeadLetter::Stage::kEmit);
  EXPECT_EQ(letters[0].shard, 0u);
  EXPECT_TRUE(letters[0].reason.IsInvalidArgument());
  EXPECT_EQ(letters[0].detail, "10.0.0.2");
  EXPECT_EQ(letters[0].records_covered, 1u);
  // Conservation: delivered + dead-lettered == absorbed.
  EXPECT_EQ(EmittedRecords(collected) + dead_letters.records_covered(), 10u);
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.sessions_emitted, 9u);
  EXPECT_EQ(total.dead_letters, 1u);
  EXPECT_TRUE((*engine)->ShardHealth()[0].ok());
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

}  // namespace
}  // namespace wum
