// Unit tests for the fault-tolerance primitives: the dead-letter queue's
// bounded FIFO semantics, the failure classification, the deterministic
// fault schedules, and the injection harness itself.

#include "wum/stream/fault.h"

#include <gtest/gtest.h>

#include <vector>

#include "wum/stream/dead_letter.h"

namespace wum {
namespace {

DeadLetter MakeLetter(std::size_t shard, const std::string& detail,
                      std::uint64_t covered = 1) {
  DeadLetter letter;
  letter.shard = shard;
  letter.reason = Status::InvalidArgument("bad record");
  letter.detail = detail;
  letter.records_covered = covered;
  return letter;
}

TEST(DeadLetterQueueTest, DrainReturnsLettersInArrivalOrder) {
  DeadLetterQueue queue;
  EXPECT_TRUE(queue.Offer(MakeLetter(0, "first")));
  EXPECT_TRUE(queue.Offer(MakeLetter(1, "second")));
  EXPECT_TRUE(queue.Offer(MakeLetter(2, "third")));
  EXPECT_EQ(queue.size(), 3u);

  std::vector<DeadLetter> letters = queue.Drain();
  ASSERT_EQ(letters.size(), 3u);
  EXPECT_EQ(letters[0].detail, "first");
  EXPECT_EQ(letters[1].detail, "second");
  EXPECT_EQ(letters[2].detail, "third");
  EXPECT_EQ(queue.size(), 0u);
  // Drain empties retention but not the lifetime accounting.
  EXPECT_EQ(queue.total_offered(), 3u);
  EXPECT_EQ(queue.records_covered(), 3u);
}

TEST(DeadLetterQueueTest, OverflowKeepsEarliestAndCountsDrops) {
  DeadLetterQueue queue(/*capacity=*/2);
  EXPECT_TRUE(queue.Offer(MakeLetter(0, "a")));
  EXPECT_TRUE(queue.Offer(MakeLetter(0, "b")));
  EXPECT_FALSE(queue.Offer(MakeLetter(0, "c", /*covered=*/5)));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.overflow_dropped(), 1u);
  // Accounting covers the dropped letter too — capacity only bounds what
  // is retained for inspection, never what is counted.
  EXPECT_EQ(queue.total_offered(), 3u);
  EXPECT_EQ(queue.records_covered(), 7u);

  std::vector<DeadLetter> letters = queue.Drain();
  ASSERT_EQ(letters.size(), 2u);
  EXPECT_EQ(letters[0].detail, "a");
  EXPECT_EQ(letters[1].detail, "b");
}

TEST(DeadLetterQueueTest, DrainFreesCapacityForNewLetters) {
  DeadLetterQueue queue(/*capacity=*/1);
  EXPECT_TRUE(queue.Offer(MakeLetter(0, "a")));
  EXPECT_FALSE(queue.Offer(MakeLetter(0, "b")));
  EXPECT_EQ(queue.Drain().size(), 1u);
  EXPECT_TRUE(queue.Offer(MakeLetter(0, "c")));
  EXPECT_EQ(queue.Drain()[0].detail, "c");
}

TEST(DeadLetterStageTest, NamesEveryStage) {
  EXPECT_EQ(DeadLetterStageName(DeadLetter::Stage::kParse), "kParse");
  EXPECT_EQ(DeadLetterStageName(DeadLetter::Stage::kRecord), "kRecord");
  EXPECT_EQ(DeadLetterStageName(DeadLetter::Stage::kEmit), "kEmit");
  EXPECT_EQ(DeadLetterStageName(DeadLetter::Stage::kShardDead), "kShardDead");
}

TEST(IsShardFatalTest, InfrastructureErrorsAreFatalDataErrorsAreNot) {
  EXPECT_TRUE(IsShardFatal(Status::Internal("x")));
  EXPECT_TRUE(IsShardFatal(Status::IoError("x")));
  EXPECT_TRUE(IsShardFatal(Status::FailedPrecondition("x")));
  EXPECT_FALSE(IsShardFatal(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsShardFatal(Status::ParseError("x")));
  EXPECT_FALSE(IsShardFatal(Status::OutOfRange("x")));
  EXPECT_FALSE(IsShardFatal(Status::NotFound("x")));
}

std::vector<bool> Take(FaultSchedule schedule, int n) {
  std::vector<bool> fired;
  for (int i = 0; i < n; ++i) fired.push_back(schedule.Next());
  return fired;
}

TEST(FaultScheduleTest, BasicShapes) {
  EXPECT_EQ(Take(FaultSchedule::Never(), 4),
            (std::vector<bool>{false, false, false, false}));
  EXPECT_EQ(Take(FaultSchedule::Always(), 3),
            (std::vector<bool>{true, true, true}));
  EXPECT_EQ(Take(FaultSchedule::AtIndices({1, 3}), 5),
            (std::vector<bool>{false, true, false, true, false}));
  EXPECT_EQ(Take(FaultSchedule::FirstN(2), 4),
            (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(Take(FaultSchedule::EveryNth(3), 7),
            (std::vector<bool>{false, false, true, false, false, true,
                               false}));
  EXPECT_EQ(Take(FaultSchedule::EveryNth(0), 3),
            (std::vector<bool>{false, false, false}));
}

TEST(FaultScheduleTest, SeededScheduleReplaysIdentically) {
  std::vector<bool> first = Take(FaultSchedule::Seeded(42, 0.5), 64);
  std::vector<bool> second = Take(FaultSchedule::Seeded(42, 0.5), 64);
  EXPECT_EQ(first, second);
  // Degenerate probabilities behave like Never/Always.
  EXPECT_EQ(Take(FaultSchedule::Seeded(7, 0.0), 8),
            Take(FaultSchedule::Never(), 8));
  EXPECT_EQ(Take(FaultSchedule::Seeded(7, 1.0), 8),
            Take(FaultSchedule::Always(), 8));
}

TEST(FaultScheduleTest, CountsSeenAndFired) {
  FaultSchedule schedule = FaultSchedule::AtIndices({0, 2});
  for (int i = 0; i < 4; ++i) schedule.Next();
  EXPECT_EQ(schedule.seen(), 4u);
  EXPECT_EQ(schedule.fired(), 2u);
}

Session OneRequestSession() {
  Session session;
  session.requests.push_back(PageRequest{0, 0});
  return session;
}

TEST(FlakySinkTest, FailsExactlyPerScheduleAndForwardsTheRest) {
  CollectingSessionSink collected;
  FlakySink flaky(&collected, FaultSchedule::AtIndices({1, 2}),
                  Status::Internal("down"));
  EXPECT_TRUE(flaky.Accept("u", OneRequestSession()).ok());
  EXPECT_TRUE(flaky.Accept("u", OneRequestSession()).IsInternal());
  EXPECT_TRUE(flaky.Accept("u", OneRequestSession()).IsInternal());
  EXPECT_TRUE(flaky.Accept("u", OneRequestSession()).ok());
  EXPECT_EQ(flaky.failures(), 2u);
  EXPECT_EQ(flaky.delivered(), 2u);
  EXPECT_EQ(collected.entries().size(), 2u);
}

/// Records every request it is fed; one session per request on Flush.
class RecordingSessionizer : public IncrementalUserSessionizer {
 public:
  explicit RecordingSessionizer(std::vector<PageRequest>* seen)
      : seen_(seen) {}

  Status OnRequest(const PageRequest& request, const EmitFn&) override {
    seen_->push_back(request);
    return Status::OK();
  }
  Status Flush(const EmitFn& emit) override {
    for (const PageRequest& request : *seen_) {
      Session session;
      session.requests.push_back(request);
      WUM_RETURN_NOT_OK(emit(std::move(session)));
    }
    return Status::OK();
  }

 private:
  std::vector<PageRequest>* seen_;
};

TEST(FaultInjectingSessionizerTest, ModesMapToRejectAndFatal) {
  std::vector<PageRequest> seen;
  std::size_t emitted = 0;
  const IncrementalUserSessionizer::EmitFn emit = [&emitted](Session) {
    ++emitted;
    return Status::OK();
  };
  UserSessionizerFactory reject_factory = FaultInjectingSessionizer::Wrap(
      [&seen] { return std::make_unique<RecordingSessionizer>(&seen); },
      /*poison_page=*/7, FaultInjectingSessionizer::Mode::kReject);
  std::unique_ptr<IncrementalUserSessionizer> reject = reject_factory();
  // Requests for other pages reach the wrapped state machine; the poison
  // page never does.
  EXPECT_TRUE(reject->OnRequest(PageRequest{1, 10}, emit).ok());
  Status rejected = reject->OnRequest(PageRequest{7, 20}, emit);
  EXPECT_TRUE(rejected.IsInvalidArgument());
  EXPECT_FALSE(IsShardFatal(rejected));
  EXPECT_TRUE(reject->OnRequest(PageRequest{2, 30}, emit).ok());
  EXPECT_EQ(seen, (std::vector<PageRequest>{{1, 10}, {2, 30}}));
  // Flush is forwarded unchanged.
  EXPECT_TRUE(reject->Flush(emit).ok());
  EXPECT_EQ(emitted, 2u);

  FaultInjectingSessionizer fatal(
      std::make_unique<RecordingSessionizer>(&seen), /*poison_page=*/7,
      FaultInjectingSessionizer::Mode::kShardFatal);
  Status killed = fatal.OnRequest(PageRequest{7, 40}, emit);
  EXPECT_TRUE(killed.IsInternal());
  EXPECT_TRUE(IsShardFatal(killed));
  EXPECT_EQ(seen.size(), 2u);
}

}  // namespace
}  // namespace wum
