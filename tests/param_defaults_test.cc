// Documented defaults are the real defaults: for every parameter of the
// technique, stage and index registries whose ParamDoc names a default
// (what `sablock_cli --list` prints), a spec that spells the default out
// builds the same product as a spec that leaves it out. Products are
// compared by what they do on a ~100-record Cora-like corpus: a
// technique's or an index's block sequence; a stage's name and the block
// sequence of token blocking piped through it. Entries that read `attrs`
// get the same attribute list on both sides.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "collect_blocks.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"

namespace sablock {
namespace {

data::Dataset Corpus() {
  data::CoraGeneratorConfig config;
  config.num_records = 100;
  config.num_entities = 20;
  config.seed = 42;
  return data::GenerateCoraLike(config);
}

/// The spec terms both sides share: `attrs` when the entry reads it.
std::string BaseTerms(const api::BlockerInfo& info) {
  for (const api::ParamDoc& param : info.params) {
    if (param.name == "attrs") return "attrs=authors+title";
  }
  return "";
}

/// `name` with `terms` (comma-joined, empty terms dropped) as its spec.
std::string Spec(const std::string& name,
                 const std::vector<std::string>& terms) {
  std::string params;
  for (const std::string& term : terms) {
    if (term.empty()) continue;
    params += (params.empty() ? "" : ",") + term;
  }
  return params.empty() ? name : name + ":" + params;
}

/// Calls check(omitted, spelled) for every documented default of every
/// entry of `registry`.
template <typename Product, typename Check>
void ForEachDocumentedDefault(const api::Registry<Product>& registry,
                              Check check) {
  size_t defaults = 0;
  for (const api::BlockerInfo& info : registry.List()) {
    const std::string base = BaseTerms(info);
    for (const api::ParamDoc& param : info.params) {
      if (param.default_value.empty()) continue;
      ++defaults;
      const std::string spelled =
          Spec(info.name, {base, param.name + "=" + param.default_value});
      SCOPED_TRACE(spelled);
      check(Spec(info.name, {base}), spelled);
    }
  }
  EXPECT_GT(defaults, 0u);
}

std::vector<Ids> RunPipeline(const std::string& spec,
                             const data::Dataset& dataset) {
  std::unique_ptr<pipeline::PipelinedBlocker> blocker;
  Status status = pipeline::Build(spec, &blocker);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  if (!status.ok()) return {};
  core::BlockCollection blocks;
  blocker->Run(dataset, blocks);
  return AsVectors(blocks);
}

TEST(ParamDefaultsTest, SpelledTechniqueDefaultsBuildTheSameBlocks) {
  const data::Dataset corpus = Corpus();
  ForEachDocumentedDefault(
      api::BlockerRegistry::Global(),
      [&](const std::string& omitted, const std::string& spelled) {
        const std::vector<Ids> expected = RunPipeline(omitted, corpus);
        EXPECT_FALSE(expected.empty());
        EXPECT_TRUE(RunPipeline(spelled, corpus) == expected);
      });
}

TEST(ParamDefaultsTest, SpelledStageDefaultsBuildTheSameStage) {
  const data::Dataset corpus = Corpus();
  const std::string generator = "token-blocking:attrs=authors+title | ";
  ForEachDocumentedDefault(
      pipeline::StageRegistry::Global(),
      [&](const std::string& omitted, const std::string& spelled) {
        std::unique_ptr<pipeline::PipelineStage> expected;
        Status status =
            pipeline::StageRegistry::Global().Create(omitted, &expected);
        ASSERT_TRUE(status.ok()) << omitted << ": " << status.message();
        std::unique_ptr<pipeline::PipelineStage> stage;
        status = pipeline::StageRegistry::Global().Create(spelled, &stage);
        ASSERT_TRUE(status.ok()) << status.message();
        EXPECT_EQ(stage->name(), expected->name());
        EXPECT_TRUE(RunPipeline(generator + spelled, corpus) ==
                    RunPipeline(generator + omitted, corpus));
      });
}

TEST(ParamDefaultsTest, SpelledIndexDefaultsBuildTheSameBlocks) {
  const data::Dataset corpus = Corpus();
  auto load = [&](const std::string& spec) {
    std::unique_ptr<index::IncrementalIndex> built;
    Status status = index::IndexRegistry::Global().Create(spec, &built);
    EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
    if (!status.ok()) return std::vector<Ids>{};
    index::LoadDataset(*built, corpus);
    return AsVectors(index::CollectBlocks(*built));
  };
  ForEachDocumentedDefault(
      index::IndexRegistry::Global(),
      [&](const std::string& omitted, const std::string& spelled) {
        const std::vector<Ids> expected = load(omitted);
        EXPECT_FALSE(expected.empty());
        EXPECT_TRUE(load(spelled) == expected);
      });
}

}  // namespace
}  // namespace sablock
