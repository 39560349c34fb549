// Tests for the LSH and SA-LSH blockers, including Propositions 5.2/5.3.

#include <gtest/gtest.h>

#include "collect_blocks.h"
#include "run_streaming.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/lsh_variants.h"
#include "data/cora_generator.h"
#include "obs/metrics.h"

namespace sablock::core {
namespace {

using data::Dataset;
using data::Record;
using data::Schema;

LshParams SmallParams() {
  LshParams p;
  p.k = 2;
  p.l = 8;
  p.q = 3;
  p.attributes = {"title", "authors"};
  p.seed = 7;
  return p;
}

Dataset TinyBibDataset() {
  Dataset d{Schema({"title", "authors", "journal", "booktitle",
                    "institution", "publisher", "year"})};
  auto add = [&d](const char* title, const char* authors,
                  const char* journal, const char* booktitle,
                  const char* institution, data::EntityId e) {
    Record r;
    r.values = {title, authors, journal, booktitle, institution, "", ""};
    d.Add(std::move(r), e);
  };
  // Two textually identical conference papers (journal-less, booktitle set).
  add("the cascade correlation learning architecture", "fahlman lebiere",
      "", "nips", "", 0);
  add("the cascade correlation learning architecture", "fahlman lebiere",
      "", "nips proceedings", "", 0);
  // The same text but a technical report (institution only).
  add("the cascade correlation learning architecture", "fahlman lebiere",
      "", "", "cmu", 1);
  // A different paper.
  add("support vector machines for classification", "vapnik", "ml journal",
      "", "", 2);
  return d;
}

TEST(LshBlockerTest, NameEncodesParameters) {
  LshBlocker blocker(SmallParams());
  EXPECT_EQ(blocker.name(), "LSH(k=2,l=8)");
}

// Proposition 5.2 (1): textually identical records are always co-blocked.
TEST(LshBlockerTest, IdenticalTextAlwaysCoBlocked) {
  Dataset d = TinyBibDataset();
  LshBlocker blocker(SmallParams());
  BlockCollection blocks = RunStreaming(blocker, d);
  // Records 0 and 2 have identical title+authors.
  EXPECT_TRUE(blocks.InSameBlock(0, 2));
}

TEST(LshBlockerTest, DissimilarRecordsUsuallySeparated) {
  Dataset d = TinyBibDataset();
  LshParams p = SmallParams();
  p.k = 4;  // selective bands
  LshBlocker blocker(p);
  BlockCollection blocks = RunStreaming(blocker, d);
  EXPECT_FALSE(blocks.InSameBlock(0, 3));
}

TEST(LshBlockerTest, EmptyRecordsAreExcluded) {
  Dataset d{Schema({"title", "authors"})};
  d.Add({{"", ""}});
  d.Add({{"", ""}});
  d.Add({{"some text here", "author"}});
  LshParams p;
  p.k = 1;
  p.l = 2;
  p.attributes = {"title", "authors"};
  LshBlocker blocker(p);
  BlockCollection blocks = RunStreaming(blocker, d);
  EXPECT_FALSE(blocks.InSameBlock(0, 1));
  EXPECT_EQ(blocks.NumBlocks(), 0u);
}

TEST(LshBlockerTest, DeterministicAcrossRuns) {
  Dataset d = TinyBibDataset();
  LshBlocker blocker(SmallParams());
  BlockCollection b1 = RunStreaming(blocker, d);
  BlockCollection b2 = RunStreaming(blocker, d);
  EXPECT_EQ(b1.TotalComparisons(), b2.TotalComparisons());
  EXPECT_EQ(b1.NumBlocks(), b2.NumBlocks());
}

TEST(LshBlockerTest, MoreTablesNeverReduceCandidates) {
  Dataset d = TinyBibDataset();
  LshParams p1 = SmallParams();
  p1.l = 2;
  LshParams p16 = SmallParams();
  p16.l = 16;
  size_t pairs_small = RunStreaming(LshBlocker(p1), d).DistinctPairs().size();
  size_t pairs_large = RunStreaming(LshBlocker(p16), d).DistinctPairs().size();
  EXPECT_GE(pairs_large, pairs_small);
}

TEST(LshBlockerTest, EmptyDatasetYieldsNoBlocks) {
  Dataset d{Schema({"title", "authors"})};
  LshBlocker blocker(SmallParams());
  EXPECT_EQ(RunStreaming(blocker, d).NumBlocks(), 0u);
}

std::shared_ptr<const SemanticFunction> BibSemantics() {
  return MakeBibliographicDomain().semantics;
}

SemanticParams FullOr(int dim = 5) {
  SemanticParams sp;
  sp.w = dim;
  sp.mode = SemanticMode::kOr;
  sp.seed = 3;
  return sp;
}

TEST(SaLshBlockerTest, NameEncodesParameters) {
  SemanticAwareLshBlocker blocker(SmallParams(), FullOr(), BibSemantics());
  EXPECT_EQ(blocker.name(), "SA-LSH(k=2,l=8,w=5,OR)");
  SemanticParams sp;
  sp.w = 2;
  sp.mode = SemanticMode::kAnd;
  SemanticAwareLshBlocker and_blocker(SmallParams(), sp, BibSemantics());
  EXPECT_EQ(and_blocker.name(), "SA-LSH(k=2,l=8,w=2,AND)");
}

// Proposition 5.3 (1): semantically dissimilar records are never
// co-blocked by SA-LSH (full-width OR), even when textually identical.
TEST(SaLshBlockerTest, SemanticallyDissimilarNeverCoBlocked) {
  Dataset d = TinyBibDataset();
  // Records 0 (proceedings {C3,C4}-ish pattern) and 2 (tech report
  // {C7,C8}) are textually identical but semantically disjoint.
  Domain domain = MakeBibliographicDomain();
  auto z0 = domain.semantics->Interpret(d, 0);
  auto z2 = domain.semantics->Interpret(d, 2);
  ASSERT_DOUBLE_EQ(domain.taxonomy().RecordSimilarity(z0, z2), 0.0);

  SemanticAwareLshBlocker blocker(SmallParams(), FullOr(), BibSemantics());
  BlockCollection blocks = RunStreaming(blocker, d);
  EXPECT_FALSE(blocks.InSameBlock(0, 2));
  // But records 0 and 1 (both proceedings, textually near-identical) stay.
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
}

TEST(SaLshBlockerTest, SubsetOfLshCandidates) {
  // SA-LSH can only remove candidates relative to LSH with the same
  // textual parameters.
  Dataset d = TinyBibDataset();
  LshParams p = SmallParams();
  PairSet lsh_pairs = RunStreaming(LshBlocker(p), d).DistinctPairs();
  SemanticAwareLshBlocker sa(p, FullOr(), BibSemantics());
  PairSet sa_pairs = RunStreaming(sa, d).DistinctPairs();
  EXPECT_LE(sa_pairs.size(), lsh_pairs.size());
  sa_pairs.ForEach([&lsh_pairs](uint32_t a, uint32_t b) {
    EXPECT_TRUE(lsh_pairs.Contains(a, b));
  });
}

TEST(SaLshBlockerTest, AndModeIsStricterThanOrMode) {
  Dataset d = TinyBibDataset();
  LshParams p = SmallParams();
  SemanticParams and_params;
  and_params.w = 2;
  and_params.mode = SemanticMode::kAnd;
  and_params.seed = 5;
  SemanticParams or_params = and_params;
  or_params.mode = SemanticMode::kOr;

  size_t and_pairs = RunStreaming(SemanticAwareLshBlocker(p, and_params, BibSemantics()), d)
                         .DistinctPairs()
                         .size();
  size_t or_pairs = RunStreaming(SemanticAwareLshBlocker(p, or_params, BibSemantics()), d)
                        .DistinctPairs()
                        .size();
  EXPECT_LE(and_pairs, or_pairs);
}

TEST(SaLshBlockerTest, WIsClampedToSignatureWidth) {
  Dataset d = TinyBibDataset();
  SemanticParams sp;
  sp.w = 100;  // far beyond the 5-bit signature
  sp.mode = SemanticMode::kOr;
  SemanticAwareLshBlocker blocker(SmallParams(), sp, BibSemantics());
  BlockCollection blocks = RunStreaming(blocker, d);  // must not abort
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
}

TEST(SaLshBlockerTest, DeterministicAcrossRuns) {
  Dataset d = TinyBibDataset();
  SemanticAwareLshBlocker blocker(SmallParams(), FullOr(), BibSemantics());
  EXPECT_EQ(RunStreaming(blocker, d).TotalComparisons(),
            RunStreaming(blocker, d).TotalComparisons());
}

// With no semantic feature in any record (dimension 0) SA-LSH keys each
// table by the band alone: plain LSH's block sequence, from one request
// of the band column.
TEST(SaLshBlockerTest, WithoutSemanticFeaturesItIsPlainLsh) {
  data::CoraGeneratorConfig config;
  config.num_entities = 30;
  config.num_records = 300;
  config.seed = 42;
  const Dataset d = data::GenerateCoraLike(config);
  const auto no_concepts = std::make_shared<const LambdaSemanticFunction>(
      MakeBibliographicTaxonomy(),
      [](const Schema&, std::span<const std::string_view>) {
        return std::vector<ConceptId>{};
      });
  const BlockCollection plain = RunStreaming(LshBlocker(SmallParams()), d);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter* hits = registry.GetCounter(
      "featurestore_hits", "column requests served from the cache", "column",
      "band");
  const obs::Counter* misses = registry.GetCounter(
      "featurestore_misses", "column requests that paid a build", "column",
      "band");
  const uint64_t hits_before = hits->value();
  const uint64_t misses_before = misses->value();
  const Dataset cold = d.ColdCopy();
  const BlockCollection semantic = RunStreaming(
      SemanticAwareLshBlocker(SmallParams(), FullOr(), no_concepts), cold);
  EXPECT_EQ(AsVectors(semantic), AsVectors(plain));
  EXPECT_EQ(misses->value() - misses_before, 1u);
  EXPECT_EQ(hits->value() - hits_before, 0u);
}

// Every table emits its buckets in canonical content order (ids ascending
// within a block, blocks sorted lexicographically) — the order of
// BlockCollection::SortBlocks and of the incremental LSH indexes. Tables
// are emitted one after another, so the whole sequence is at most l
// sorted runs.
TEST(LshFamilyTest, EveryTableEmitsInCanonicalContentOrder) {
  data::CoraGeneratorConfig config;
  config.num_entities = 30;
  config.num_records = 300;
  config.seed = 42;
  const Dataset d = data::GenerateCoraLike(config);
  LshParams p = SmallParams();
  SemanticParams and_params = FullOr(3);
  and_params.mode = SemanticMode::kAnd;

  const SemanticAwareLshBlocker sa_or(p, FullOr(), BibSemantics());
  const SemanticAwareLshBlocker sa_and(p, and_params, BibSemantics());
  const LshBlocker lsh(p);
  const MultiProbeLshBlocker mp(p, 2);
  const std::vector<const BlockingTechnique*> techniques = {&lsh, &sa_or,
                                                           &sa_and, &mp};
  for (const BlockingTechnique* technique : techniques) {
    SCOPED_TRACE(technique->name());
    const BlockCollection output = RunStreaming(*technique, d);
    const std::vector<Ids> blocks = AsVectors(output);
    ASSERT_GT(blocks.size(), static_cast<size_t>(4 * p.l));
    size_t runs = 1;
    for (size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_GE(blocks[i].size(), 2u);
      EXPECT_TRUE(std::is_sorted(blocks[i].begin(), blocks[i].end()));
      if (i > 0 && blocks[i] < blocks[i - 1]) ++runs;
    }
    EXPECT_LE(runs, static_cast<size_t>(p.l));
  }
}

TEST(MinhashSignaturesTest, OnePerRecord) {
  Dataset d = TinyBibDataset();
  auto sigs = MinhashSignatures(d, SmallParams());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_EQ(sigs.Row(id).size(), 16u);  // k*l
  }
}

}  // namespace
}  // namespace sablock::core
