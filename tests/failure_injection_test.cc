// Failure-injection and precondition tests: every public entry point that
// documents a CHECK-able contract aborts cleanly rather than corrupting
// state, and degenerate inputs flow through the pipeline without crashes.

#include <gtest/gtest.h>

#include "run_streaming.h"

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/canopy.h"
#include "baselines/suffix_array.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/lsh_variants.h"
#include "core/minhash.h"
#include "core/semantic.h"
#include "core/tuning.h"
#include "data/record.h"
#include "eval/metrics.h"

namespace sablock {
namespace {

using data::Dataset;
using data::Record;
using data::Schema;

TEST(PreconditionDeathTest, DatasetRejectsWrongArity) {
  Dataset d{Schema({"a", "b"})};
  Record r;
  r.values = {"only one"};
  EXPECT_DEATH(d.Add(std::move(r)), "arity");
}

TEST(PreconditionDeathTest, SemanticFunctionRejectsWrongArity) {
  const core::Domain bib = core::MakeBibliographicDomain();
  const Schema schema({"journal", "booktitle", "institution"});
  const std::vector<std::string_view> values = {"J. ML", ""};
  EXPECT_DEATH(bib.semantics->Interpret(schema, values), "arity");
  const core::LambdaSemanticFunction lambda(
      bib.taxonomy(), [](const Schema&, std::span<const std::string_view>) {
        return std::vector<core::ConceptId>{};
      });
  EXPECT_DEATH(lambda.Interpret(schema, values), "arity");
}

TEST(PreconditionDeathTest, MinHasherRejectsNonPositiveCount) {
  EXPECT_DEATH(core::MinHasher(0, 1), "CHECK");
}

TEST(PreconditionDeathTest, LshBlockerRejectsDegenerateParams) {
  Dataset d{Schema({"a"})};
  d.Add({{"x"}});
  core::LshParams p;
  p.k = 0;
  p.l = 4;
  p.attributes = {"a"};
  EXPECT_DEATH(RunStreaming(core::LshBlocker(p), d), "CHECK");
}

TEST(PreconditionDeathTest, SemanticBlockerRejectsNullSemantics) {
  core::LshParams p;
  p.attributes = {"a"};
  EXPECT_DEATH(
      core::SemanticAwareLshBlocker(p, core::SemanticParams{}, nullptr),
      "CHECK");
}

TEST(PreconditionDeathTest, TuneKLRequiresOrderedThresholds) {
  EXPECT_DEATH(core::TuneKL(0.2, 0.5, 0.3, 0.1), "CHECK");
}

TEST(PreconditionDeathTest, SuffixArrayRejectsTinyBlockCap) {
  EXPECT_DEATH(baselines::SuffixArrayBlocking(
                   baselines::ExactKey({"a"}), 3, /*max_block_size=*/1),
               "CHECK");
}

TEST(PreconditionDeathTest, CanopyRejectsInvertedThresholds) {
  EXPECT_DEATH(baselines::CanopyThreshold(baselines::ExactKey({"a"}),
                                          baselines::CanopySimilarity::
                                              kJaccard,
                                          /*loose=*/0.9, /*tight=*/0.5),
               "CHECK");
}

// --- degenerate-but-legal inputs ---------------------------------------

TEST(DegenerateInputTest, AllMissingRecordsAreHandledEndToEnd) {
  Dataset d{Schema({"title", "authors", "journal", "booktitle",
                    "institution", "publisher", "year"})};
  for (int i = 0; i < 4; ++i) {
    Record r;
    r.values.assign(7, "");
    d.Add(std::move(r), 0);
  }
  core::Domain domain = core::MakeBibliographicDomain();
  core::LshParams p;
  p.k = 2;
  p.l = 4;
  p.attributes = {"authors", "title"};
  core::SemanticParams sp;
  sp.w = 5;
  core::SemanticAwareLshBlocker blocker(p, sp, domain.semantics);
  core::BlockCollection blocks = RunStreaming(blocker, d);
  // No shingles -> no textual buckets -> no blocks; metrics stay sane.
  EXPECT_EQ(blocks.NumBlocks(), 0u);
  eval::Metrics m = eval::Evaluate(d, blocks);
  EXPECT_DOUBLE_EQ(m.pc, 0.0);
  EXPECT_DOUBLE_EQ(m.rr, 1.0);
}

TEST(DegenerateInputTest, SingleRecordDataset) {
  Dataset d{Schema({"a"})};
  d.Add({{"solo"}}, 0);
  core::LshParams p;
  p.k = 1;
  p.l = 1;
  p.attributes = {"a"};
  EXPECT_EQ(RunStreaming(core::LshBlocker(p), d).NumBlocks(), 0u);
  EXPECT_EQ(RunStreaming(core::MultiProbeLshBlocker(p, 1), d).NumBlocks(), 0u);
  EXPECT_EQ(RunStreaming(core::LshForestBlocker(p, 4, 2), d).NumBlocks(), 0u);
}

TEST(DegenerateInputTest, SemanticsWithoutMatchingAttributes) {
  // A dataset whose schema lacks the domain's semantic attributes: every
  // record falls through to the catch-all pattern; blocking still works.
  Dataset d{Schema({"text"})};
  d.Add({{"some text one"}}, 0);
  d.Add({{"some text one"}}, 0);
  core::Domain domain = core::MakeBibliographicDomain();
  auto zeta = domain.semantics->Interpret(d, 0);
  ASSERT_EQ(zeta.size(), 1u);
  EXPECT_EQ(domain.taxonomy().name(zeta[0]), "C1");  // pattern 8

  core::LshParams p;
  p.k = 1;
  p.l = 2;
  p.attributes = {"text"};
  core::SemanticParams sp;
  sp.w = 3;
  core::BlockCollection blocks =
      RunStreaming(core::SemanticAwareLshBlocker(p, sp, domain.semantics), d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
}

TEST(DegenerateInputTest, IdenticalRecordsEverywhere) {
  Dataset d{Schema({"a", "b"})};
  for (int i = 0; i < 20; ++i) d.Add({{"same", "value"}}, 0);
  core::LshParams p;
  p.k = 3;
  p.l = 2;
  p.attributes = {"a", "b"};
  eval::Metrics m = eval::Evaluate(d, RunStreaming(core::LshBlocker(p), d));
  EXPECT_DOUBLE_EQ(m.pc, 1.0);
  EXPECT_DOUBLE_EQ(m.pq, 1.0);
}

TEST(DegenerateInputTest, ForestWithUnsplittableGroupEmitsAtMaxDepth) {
  // 10 identical records and a cap of 3: no row can split them, so the
  // forest must emit the oversized leaf at max depth rather than loop.
  Dataset d{Schema({"a"})};
  for (int i = 0; i < 10; ++i) d.Add({{"identical text"}}, 0);
  core::LshParams p;
  p.k = 2;
  p.l = 1;
  p.attributes = {"a"};
  core::LshForestBlocker forest(p, /*max_depth=*/4, /*max_block_size=*/3);
  core::BlockCollection blocks = RunStreaming(forest, d);
  ASSERT_EQ(blocks.NumBlocks(), 1u);
  EXPECT_EQ(blocks.blocks()[0].size(), 10u);
}

}  // namespace
}  // namespace sablock
