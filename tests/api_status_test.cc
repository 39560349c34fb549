// Tests for the Status construction paths: the BlockerRegistry, the
// StageRegistry, the IndexRegistry and pipeline::Build each turn every
// malformed spec into a diagnostic Status (and a null product) instead of
// a CHECK failure. One test per diagnostic class pins the message a user
// actually sees.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/registry.h"
#include "index/index_registry.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"

namespace sablock {
namespace {

using api::BlockerRegistry;
using pipeline::StageRegistry;

/// The diagnostic of a spec that must not build; its product stays null.
template <typename Product, typename Create>
std::string ErrorOf(const std::string& spec, Create create) {
  std::unique_ptr<Product> product;
  Status status = create(spec, &product);
  EXPECT_FALSE(status.ok()) << "'" << spec << "' should not build";
  EXPECT_EQ(product, nullptr) << spec;
  return status.message();
}

std::string BlockerError(const std::string& spec) {
  return ErrorOf<core::BlockingTechnique>(spec, [](auto&&... args) {
    return BlockerRegistry::Global().Create(args...);
  });
}

std::string StageError(const std::string& spec) {
  return ErrorOf<pipeline::PipelineStage>(spec, [](auto&&... args) {
    return StageRegistry::Global().Create(args...);
  });
}

std::string BuildError(const std::string& spec) {
  return ErrorOf<pipeline::PipelinedBlocker>(
      spec, [](auto&&... args) { return pipeline::Build(args...); });
}

TEST(BlockerStatusTest, OkPathYieldsAWorkingTechnique) {
  std::unique_ptr<core::BlockingTechnique> technique;
  Status status =
      BlockerRegistry::Global().Create("tblo:attrs=name", &technique);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_NE(technique, nullptr);
  EXPECT_FALSE(technique->name().empty());
}

TEST(BlockerStatusTest, UnknownTechniqueNamesItAndListsTheRegistry) {
  std::string message = BlockerError("nope:attrs=name");
  EXPECT_NE(message.find("unknown technique 'nope'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("tblo"), std::string::npos) << message;
}

TEST(BlockerStatusTest, BadParamTypeNamesTheParam) {
  std::string message = BlockerError("sor-a:window=huge,attrs=name");
  EXPECT_NE(message.find("param 'window'"), std::string::npos) << message;
  EXPECT_NE(message.find("expected integer"), std::string::npos) << message;
}

TEST(BlockerStatusTest, OutOfRangeParamValueIsDiagnosed) {
  std::string message = BlockerError("sor-a:window=1,attrs=name");
  EXPECT_NE(message.find("window"), std::string::npos) << message;
}

TEST(BlockerStatusTest, UnknownParamIsDiagnosed) {
  std::string message = BlockerError("tblo:bogus=1,attrs=name");
  EXPECT_NE(message.find("unknown param(s) 'bogus'"), std::string::npos)
      << message;
}

TEST(BlockerStatusTest, DuplicateParamIsDiagnosed) {
  std::string message = BlockerError("tblo:attrs=name,attrs=title");
  EXPECT_NE(message.find("given more than once"), std::string::npos)
      << message;
}

TEST(StageStatusTest, OkPathYieldsAStage) {
  std::unique_ptr<pipeline::PipelineStage> stage;
  Status status = StageRegistry::Global().Create("purge:max_size=5", &stage);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_NE(stage, nullptr);
}

TEST(StageStatusTest, UnknownStageNamesItAndListsTheRegistry) {
  std::string message = StageError("nope:x=1");
  EXPECT_NE(message.find("unknown stage 'nope'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("purge"), std::string::npos) << message;
}

TEST(StageStatusTest, StageParamValidationSurfacesAsStatus) {
  std::string message = StageError("progressive:pairs=0");
  EXPECT_NE(message.find("pairs"), std::string::npos) << message;
}

TEST(IndexStatusTest, OkPathAndUnknownIndex) {
  std::unique_ptr<index::IncrementalIndex> index;
  Status status =
      index::IndexRegistry::Global().Create("token:attrs=name", &index);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_NE(index, nullptr);

  status = index::IndexRegistry::Global().Create("nope:attrs=name", &index);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(index, nullptr);
  const std::string& message = status.message();
  EXPECT_NE(message.find("unknown index 'nope'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("sa-lsh"), std::string::npos) << message;
}

TEST(PipelineBuildStatusTest, OkPathBuildsTheFullChain) {
  std::unique_ptr<pipeline::PipelinedBlocker> built;
  Status status =
      pipeline::Build("tblo:attrs=name | purge:max_size=9", &built);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_NE(built, nullptr);
  EXPECT_NE(built->name().find("purge"), std::string::npos);
}

TEST(PipelineBuildStatusTest, EmptySegmentIsDiagnosedWithItsPosition) {
  std::string message = BuildError("tblo:attrs=name |  | purge:max_size=9");
  EXPECT_NE(message.find("segment 2"), std::string::npos) << message;
  EXPECT_NE(message.find("is empty"), std::string::npos) << message;
}

TEST(PipelineBuildStatusTest, UnknownBlockerIsAttributedToTheBlockerSlot) {
  std::string message = BuildError("nope:attrs=name | purge:max_size=9");
  EXPECT_NE(message.find("unknown technique 'nope'"), std::string::npos)
      << message;
}

TEST(PipelineBuildStatusTest, UnknownStageIsAttributedToItsSlot) {
  std::string message = BuildError("tblo:attrs=name | nope:x=1");
  EXPECT_NE(message.find("unknown stage 'nope'"), std::string::npos)
      << message;
}

}  // namespace
}  // namespace sablock
