// BulkLoad against per-record Insert. IncrementalIndex::BulkLoad(first,
// dataset) must leave every registered index in the state an Insert loop
// over the same records in id order leaves: the same size, the same
// EmitBlocks sequence, the same Query answer for every record and for
// held-out probes, and the same answers under later Insert, Remove and
// Query traffic. lsh and sa-lsh override it with a batch pass (one encoder
// check per batch, tables filled one at a time), so the cases also cover a
// split load whose bulk part grows sa-lsh's semantic dimension, a bulk
// load below an already-live higher id, and the service warm start
// (CandidateService::Preload) against its Insert loop. Every corpus
// carries records whose blocking attributes are empty.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "collect_blocks.h"
#include "common/random.h"
#include "core/blocking.h"
#include "core/budget.h"
#include "core/domains.h"
#include "core/semhash.h"
#include "data/cora_generator.h"
#include "data/voter_generator.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "service/candidate_service.h"
#include "split_load.h"

namespace sablock::index {
namespace {

/// One corpus: the records to load, held-out probes (never loaded), the
/// blocking attributes and the semantic domain.
struct Corpus {
  data::Dataset records;
  data::Dataset probes;
  std::vector<std::string> attributes;
  core::Domain domain;
};

/// Appends copies of the first records with `attributes` cleared: live
/// records with no blocking text (no shingle, token or key value).
void AddRecordsWithoutBlockingText(const std::vector<std::string>& attributes,
                                   data::Dataset* d) {
  for (data::RecordId source = 0; source < 3; ++source) {
    std::vector<std::string> values(d->Values(source).begin(),
                                    d->Values(source).end());
    for (const std::string& attribute : attributes) {
      values[static_cast<size_t>(d->schema().IndexOf(attribute))].clear();
    }
    const std::vector<std::string_view> views(values.begin(), values.end());
    d->AddRow(views);
  }
}

data::Dataset CoraRecords(size_t records, uint64_t seed) {
  data::CoraGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 8;
  config.seed = seed;
  return data::GenerateCoraLike(config);
}

data::Dataset VoterRecords(size_t records, uint64_t seed) {
  data::VoterGeneratorConfig config;
  config.num_records = records;
  config.seed = seed;
  config.duplicate_fraction = 0.4;
  return data::GenerateVoterLike(config);
}

/// A corpus whose records and probes each end with records that have no
/// blocking text.
Corpus WithEmptyRecords(Corpus corpus) {
  AddRecordsWithoutBlockingText(corpus.attributes, &corpus.records);
  AddRecordsWithoutBlockingText(corpus.attributes, &corpus.probes);
  return corpus;
}

const Corpus& Cora() {
  static const Corpus corpus = WithEmptyRecords(
      {CoraRecords(300, 71), CoraRecords(60, 72), {"authors", "title"},
       core::MakeBibliographicDomain()});
  return corpus;
}

const Corpus& Voter() {
  static const Corpus corpus = WithEmptyRecords(
      {VoterRecords(400, 73), VoterRecords(60, 74),
       {"first_name", "last_name"}, core::MakeVoterDomain()});
  return corpus;
}

/// One (spec, corpus) case. The spec drives the index registry.
struct Case {
  std::string spec;
  const Corpus* corpus;
};

std::vector<Case> Cases() {
  return {
      {"token-blocking:attrs=authors+title", &Cora()},
      {"token-blocking:attrs=first_name+last_name", &Voter()},
      {"sor-a:window=3,attrs=authors+title", &Cora()},
      {"sor-a:window=4,attrs=first_name+last_name", &Voter()},
      {"lsh:k=4,l=12,q=4,attrs=authors+title", &Cora()},
      {"lsh:k=9,l=8,q=2,attrs=first_name+last_name", &Voter()},
      {"sa-lsh:k=4,l=12,q=4,w=5,mode=or,domain=bib", &Cora()},
      {"sa-lsh:k=3,l=8,q=3,w=2,mode=and,domain=bib", &Cora()},
      {"sa-lsh:k=9,l=8,q=2,w=4,mode=or,domain=voter", &Voter()},
      {"sa-lsh:k=3,l=6,q=2,w=1,mode=and,domain=voter", &Voter()},
  };
}

std::unique_ptr<IncrementalIndex> Bound(const std::string& spec,
                                        const data::Schema& schema) {
  std::unique_ptr<IncrementalIndex> index;
  Status s = IndexRegistry::Global().Create(spec, &index);
  EXPECT_TRUE(s.ok()) << spec << ": " << s.message();
  s = index->Bind(schema);
  EXPECT_TRUE(s.ok()) << spec << ": " << s.message();
  return index;
}

/// Expects `got` in `want`'s state: the same size, EmitBlocks sequence
/// and Query answer for every record of `records` and `probes`.
void ExpectSameState(const IncrementalIndex& got, const IncrementalIndex& want,
                     const data::Dataset& records,
                     const data::Dataset& probes) {
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(AsVectors(CollectBlocks(got)), AsVectors(CollectBlocks(want)));
  for (const data::Dataset* d : {&records, &probes}) {
    for (data::RecordId id = 0; id < d->size(); ++id) {
      ASSERT_EQ(got.Query(d->Values(id)), want.Query(d->Values(id)))
          << "probe " << id << " of " << d->size();
    }
  }
}

/// `d` reordered so that its first `*head` records interpret to concepts
/// that give the semhash encoder fewer features than the whole corpus:
/// the records that add no feature to the narrowest record's, then the
/// rest, each part in id order.
data::Dataset ConceptSplit(const Corpus& corpus, size_t* head) {
  const data::Dataset& d = corpus.records;
  const core::SemanticFunction& semantics = *corpus.domain.semantics;
  const std::vector<std::vector<core::ConceptId>> zetas =
      semantics.InterpretAll(d);
  auto dimension = [&](std::vector<std::vector<core::ConceptId>> set) {
    return core::SemhashEncoder::Build(semantics.taxonomy(), set).dimension();
  };
  data::RecordId narrowest = 0;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    if (dimension({zetas[id]}) < dimension({zetas[narrowest]})) {
      narrowest = id;
    }
  }
  const uint32_t narrow = dimension({zetas[narrowest]});
  std::vector<data::RecordId> order;
  std::vector<data::RecordId> rest;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    (dimension({zetas[narrowest], zetas[id]}) == narrow ? order : rest)
        .push_back(id);
  }
  *head = order.size();
  order.insert(order.end(), rest.begin(), rest.end());
  data::Dataset split(d.schema());
  for (data::RecordId id : order) split.AddRow(d.Values(id));
  return split;
}

TEST(IndexBulkLoad, CasesCoverEveryRegisteredIndex) {
  std::set<std::string> covered;
  for (const Case& c : Cases()) {
    covered.insert(c.spec.substr(0, c.spec.find(':')));
  }
  for (const api::BlockerInfo& info : IndexRegistry::Global().List()) {
    EXPECT_TRUE(covered.count(info.name))
        << "registered index '" << info.name
        << "' has no bulk-load case — add one to Cases()";
  }
}

TEST(IndexBulkLoad, BulkLoadEqualsInsertLoopUnderLaterTraffic) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.spec);
    const data::Dataset& records = c.corpus->records;
    const data::Dataset& probes = c.corpus->probes;
    std::unique_ptr<IncrementalIndex> inserted =
        SplitLoad(c.spec, records, records.size());
    std::unique_ptr<IncrementalIndex> bulk = SplitLoad(c.spec, records, 0);
    ExpectSameState(*bulk, *inserted, records, probes);

    // A seeded interleaving of Insert (the probes, under the next ids),
    // Remove (live or not) and Query answers alike on both sides.
    Rng rng(0xb01c + records.size());
    data::RecordId next = static_cast<data::RecordId>(records.size());
    for (int op = 0; op < 240; ++op) {
      const auto probe =
          static_cast<data::RecordId>(rng.UniformIndex(probes.size()));
      const int64_t kind = rng.UniformInt(0, 2);
      if (kind == 0) {
        inserted->Insert(next, probes.Values(probe));
        bulk->Insert(next, probes.Values(probe));
        ++next;
      } else if (kind == 1) {
        const auto id = static_cast<data::RecordId>(rng.UniformIndex(next));
        ASSERT_EQ(bulk->Remove(id), inserted->Remove(id)) << "op " << op;
      } else {
        ASSERT_EQ(bulk->Query(probes.Values(probe)),
                  inserted->Query(probes.Values(probe)))
            << "op " << op;
      }
    }
    ExpectSameState(*bulk, *inserted, records, probes);
  }
}

TEST(IndexBulkLoad, SplitLoadWhoseBulkPartGrowsTheSemanticDimension) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.spec);
    size_t head = 0;
    const data::Dataset split = ConceptSplit(*c.corpus, &head);
    ASSERT_GT(head, 1u);
    ASSERT_LT(head, split.size());
    // The bulk part brings features the per-record part lacks.
    const core::SemanticFunction& semantics = *c.corpus->domain.semantics;
    const std::vector<std::vector<core::ConceptId>> zetas =
        semantics.InterpretAll(split);
    const std::vector<std::vector<core::ConceptId>> head_zetas(
        zetas.begin(), zetas.begin() + static_cast<std::ptrdiff_t>(head));
    ASSERT_LT(
        core::SemhashEncoder::Build(semantics.taxonomy(), head_zetas)
            .dimension(),
        core::SemhashEncoder::Build(semantics.taxonomy(), zetas).dimension());

    std::unique_ptr<IncrementalIndex> inserted =
        SplitLoad(c.spec, split, split.size());
    std::unique_ptr<IncrementalIndex> mixed = SplitLoad(c.spec, split, head);
    ExpectSameState(*mixed, *inserted, split, c.corpus->probes);
    // The batch technique is a reference the two load paths do not share
    // (the dimension-growth rebuild is common code).
    std::unique_ptr<core::BlockingTechnique> batch;
    ASSERT_TRUE(api::BlockerRegistry::Global().Create(c.spec, &batch).ok());
    core::BlockCollection want;
    batch->Run(split, want);
    EXPECT_EQ(AsVectors(CollectBlocks(*mixed)), AsVectors(want));
  }
}

TEST(IndexBulkLoad, BulkLoadBelowALiveHigherSparseId) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.spec);
    const data::Dataset& records = c.corpus->records;
    const data::Dataset& probes = c.corpus->probes;
    const auto high = static_cast<data::RecordId>(records.size() + 500);
    const auto higher = static_cast<data::RecordId>(records.size() + 9000);
    std::unique_ptr<IncrementalIndex> inserted =
        Bound(c.spec, records.schema());
    std::unique_ptr<IncrementalIndex> bulk = Bound(c.spec, records.schema());
    for (IncrementalIndex* index : {inserted.get(), bulk.get()}) {
      index->Insert(higher, probes.Values(1));
      index->Insert(high, probes.Values(0));
    }
    for (data::RecordId id = 0; id < records.size(); ++id) {
      inserted->Insert(id, records.Values(id));
    }
    bulk->BulkLoad(0, records);
    ExpectSameState(*bulk, *inserted, records, probes);
    EXPECT_TRUE(bulk->Remove(high));
    EXPECT_TRUE(inserted->Remove(high));
    ExpectSameState(*bulk, *inserted, records, probes);
  }
}

using Scored = std::vector<std::pair<data::RecordId, double>>;

Scored ProgressiveAnswer(const service::CandidateService& service,
                         std::span<const std::string_view> values) {
  core::Budget budget;
  budget.pairs = 25;
  std::vector<service::CandidateService::ScoredCandidate> best;
  Status s = service.QueryProgressive(values, budget, &best);
  EXPECT_TRUE(s.ok()) << s.message();
  Scored out;
  for (const auto& candidate : best) {
    out.emplace_back(candidate.id, candidate.score);
  }
  return out;
}

TEST(IndexBulkLoad, PreloadEqualsServiceInsertLoop) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.spec);
    const data::Dataset& records = c.corpus->records;
    const data::Dataset& probes = c.corpus->probes;
    std::unique_ptr<service::CandidateService> inserted;
    std::unique_ptr<service::CandidateService> preloaded;
    ASSERT_TRUE(service::CandidateService::Make(records.schema(), c.spec,
                                                 &inserted)
                    .ok());
    ASSERT_TRUE(service::CandidateService::Make(records.schema(), c.spec,
                                                 &preloaded)
                    .ok());
    // The first probe goes in before the warm start, so Preload continues
    // from the next id.
    EXPECT_EQ(inserted->Insert(probes.Values(0)), 0u);
    EXPECT_EQ(preloaded->Insert(probes.Values(0)), 0u);
    for (data::RecordId id = 0; id < records.size(); ++id) {
      inserted->Insert(records.Values(id));
    }
    EXPECT_EQ(preloaded->Preload(records), records.size());
    EXPECT_EQ(preloaded->Insert(probes.Values(1)),
              inserted->Insert(probes.Values(1)));
    core::BlockCollection want;
    core::BlockCollection got;
    inserted->EmitBlocks(want);
    preloaded->EmitBlocks(got);
    EXPECT_EQ(AsVectors(got), AsVectors(want));
    for (const data::Dataset* d : {&records, &probes}) {
      for (data::RecordId id = 0; id < d->size(); ++id) {
        ASSERT_EQ(preloaded->Query(d->Values(id)),
                  inserted->Query(d->Values(id)))
            << id;
        ASSERT_EQ(ProgressiveAnswer(*preloaded, d->Values(id)),
                  ProgressiveAnswer(*inserted, d->Values(id)))
            << id;
      }
    }
    const service::ServiceStats want_stats = inserted->stats();
    const service::ServiceStats got_stats = preloaded->stats();
    EXPECT_EQ(got_stats.records, want_stats.records);
    EXPECT_EQ(got_stats.inserts, want_stats.inserts);
    EXPECT_EQ(got_stats.queries, want_stats.queries);
    EXPECT_EQ(got_stats.removes, want_stats.removes);
    EXPECT_EQ(got_stats.index_name, want_stats.index_name);
  }
}

}  // namespace
}  // namespace sablock::index
