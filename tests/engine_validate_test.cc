// EngineOptions::Validate contract tests: every misconfiguration that
// used to be silently clamped, asserted on, or discovered deep inside
// shard bring-up is now a precise InvalidArgument/NotFound from Create,
// with a message that names the fix. A valid configuration still
// creates an engine.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

/// Runs Create with the given options against a throwaway sink and
/// expects a failure whose message contains `expected`.
void ExpectCreateFails(EngineOptions options, const std::string& expected) {
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(std::move(options), &sink);
  ASSERT_FALSE(engine.ok()) << "expected failure mentioning: " << expected;
  EXPECT_NE(engine.status().message().find(expected), std::string::npos)
      << "actual message: " << engine.status().message();
}

TEST(EngineValidateTest, ZeroShardsRejected) {
  ExpectCreateFails(EngineOptions().set_num_shards(0).use_duration()
                        .set_num_pages(4),
                    "num_shards must be >= 1");
}

TEST(EngineValidateTest, ZeroQueueCapacityRejected) {
  ExpectCreateFails(EngineOptions().set_queue_capacity(0).use_duration()
                        .set_num_pages(4),
                    "queue_capacity must be >= 1");
}

TEST(EngineValidateTest, UnsetHeuristicRejectedWithGuidance) {
  ExpectCreateFails(EngineOptions().set_num_pages(4), "choose a heuristic");
}

TEST(EngineValidateTest, UnknownHeuristicListsTheRegistry) {
  EngineOptions options;
  options.set_num_pages(4).use_heuristic("does-not-exist");
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(std::move(options), &sink);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsNotFound());
  // The error names the registry's actual contents, so it cannot drift.
  EXPECT_NE(engine.status().message().find("duration"), std::string::npos)
      << engine.status().message();
}

TEST(EngineValidateTest, GraphHeuristicWithoutGraphRejected) {
  ExpectCreateFails(EngineOptions().set_num_pages(4).use_heuristic("smart-sra"),
                    "needs a web graph");
}

TEST(EngineValidateTest, UnderivableNumPagesRejected) {
  ExpectCreateFails(EngineOptions().use_duration(),
                    "set_num_pages is required");
}

TEST(EngineValidateTest, ShedWithoutDeadLetterBudgetRejected) {
  ExpectCreateFails(EngineOptions()
                        .set_num_pages(4)
                        .use_duration()
                        .set_offer_policy(OfferPolicy::kShed),
                    "requires a dead-letter budget");
}

TEST(EngineValidateTest, ExternalReplayWithoutResumeDirRejected) {
  ExpectCreateFails(EngineOptions()
                        .set_num_pages(4)
                        .use_duration()
                        .resume_with_external_replay(),
                    "requires resume_from");
}

TEST(EngineValidateTest, ValidConfigurationStillCreates) {
  WebGraph graph = MakeFigure1Topology();
  DeadLetterQueue dead_letters;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_offer_policy(OfferPolicy::kShed)
          .set_dead_letters(&dead_letters)
          .use_smart_sra(&graph),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  EXPECT_TRUE((*engine)->Finish().ok());
}

}  // namespace
}  // namespace wum
