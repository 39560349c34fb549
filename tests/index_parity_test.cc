// Index/batch parity goldens: every registered incremental index, after
// loading a dataset (one bulk load, one-by-one insertion, or one-by-one
// for the first third and a bulk load of the rest), must reproduce the
// blocks of the batch technique built from the *same spec string*
// byte-identically, sequence included: the key-ordered indexes walk their
// keys in the batch order, and the hash-table ones (lsh, sa-lsh) emit
// each table in canonical content order, as the batch blockers do. This
// is the equivalence bridge the serving layer rests on: a warm index
// answers exactly the batch technique's blocking.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/registry.h"
#include "collect_blocks.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "data/voter_generator.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "split_load.h"

namespace sablock::index {
namespace {

data::Dataset CoraDataset(size_t records = 300) {
  data::CoraGeneratorConfig config;
  config.num_records = records;
  config.num_entities = std::max<size_t>(records / 10, 1);
  config.seed = 42;
  return GenerateCoraLike(config);
}

data::Dataset VoterDataset(size_t records = 400) {
  data::VoterGeneratorConfig config;
  config.num_records = records;
  config.seed = 97;
  return GenerateVoterLike(config);
}

core::BlockCollection RunBatch(const std::string& spec,
                               const data::Dataset& dataset) {
  std::unique_ptr<core::BlockingTechnique> technique;
  Status s = api::BlockerRegistry::Global().Create(spec, &technique);
  EXPECT_TRUE(s.ok()) << spec << ": " << s.message();
  core::BlockCollection blocks;
  technique->Run(dataset, blocks);
  return blocks;
}

std::unique_ptr<IncrementalIndex> LoadIndex(const std::string& spec,
                                            const data::Dataset& dataset) {
  std::unique_ptr<IncrementalIndex> index;
  Status s = IndexRegistry::Global().Create(spec, &index);
  EXPECT_TRUE(s.ok()) << spec << ": " << s.message();
  LoadDataset(*index, dataset);
  return index;
}

/// One (spec, dataset) parity case. The spec string drives both
/// registries.
struct ParityCase {
  std::string spec;
  const data::Dataset* dataset;
};

std::vector<ParityCase> Cases(const data::Dataset& cora,
                              const data::Dataset& voter) {
  // l is reduced from the paper's operating points to keep the golden
  // fast; parity does not depend on the table count.
  return {
      {"token-blocking:attrs=authors+title", &cora},
      {"token-blocking:attrs=first_name+last_name", &voter},
      {"sor-a:window=3,attrs=authors+title", &cora},
      {"sor-a:window=5,attrs=first_name+last_name", &voter},
      {"lsh:k=4,l=12,q=4,attrs=authors+title", &cora},
      {"lsh:k=9,l=8,q=2,attrs=first_name+last_name", &voter},
      {"sa-lsh:k=4,l=12,q=4,w=5,mode=or,domain=bib", &cora},
      {"sa-lsh:k=4,l=12,q=4,w=3,mode=and,domain=bib", &cora},
      {"sa-lsh:k=9,l=8,q=2,w=4,mode=or,domain=voter", &voter},
  };
}

TEST(IndexParityGolden, CasesCoverEveryRegisteredIndex) {
  data::Dataset cora = CoraDataset(10);
  data::Dataset voter = VoterDataset(10);
  std::set<std::string> covered;
  for (const ParityCase& c : Cases(cora, voter)) {
    covered.insert(c.spec.substr(0, c.spec.find(':')));
  }
  for (const api::BlockerInfo& info : IndexRegistry::Global().List()) {
    EXPECT_TRUE(covered.count(info.name))
        << "registered index '" << info.name
        << "' has no parity case — add one to Cases()";
  }
}

TEST(IndexParityGolden, IncrementalLoadMatchesBatchBlocks) {
  data::Dataset cora = CoraDataset();
  data::Dataset voter = VoterDataset();
  for (const ParityCase& c : Cases(cora, voter)) {
    SCOPED_TRACE(c.spec);
    core::BlockCollection batch = RunBatch(c.spec, *c.dataset);
    std::unique_ptr<IncrementalIndex> index = LoadIndex(c.spec, *c.dataset);
    core::BlockCollection incremental = CollectBlocks(*index);
    // The full emission sequence, not just the multiset: block order and
    // intra-block id order must match.
    EXPECT_EQ(AsVectors(incremental), AsVectors(batch));
    // LoadDataset bulk-loads; the per-record path, and a load that inserts
    // the first third one by one and bulk-loads the rest, match too.
    for (size_t bulk_from : {c.dataset->size(), c.dataset->size() / 3}) {
      EXPECT_EQ(
          AsVectors(CollectBlocks(*SplitLoad(c.spec, *c.dataset, bulk_from))),
          AsVectors(batch))
          << "records before the bulk load: " << bulk_from;
    }
  }
}

TEST(IndexParityGolden, RemovalMatchesFreshSubsetLoad) {
  // Removing records must leave the index indistinguishable from one
  // that only ever saw the surviving records. (sa-lsh is exempt by
  // contract: its semantic feature space never shrinks on Remove.)
  data::Dataset cora = CoraDataset(200);
  const std::vector<std::string> specs = {
      "token-blocking:attrs=authors+title",
      "sor-a:window=3,attrs=authors+title",
      "lsh:k=4,l=12,q=4,attrs=authors+title",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    std::unique_ptr<IncrementalIndex> full = LoadIndex(spec, cora);
    std::unique_ptr<IncrementalIndex> subset;
    Status s = IndexRegistry::Global().Create(spec, &subset);
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_TRUE(subset->Bind(cora.schema()).ok());
    for (data::RecordId id = 0; id < cora.size(); ++id) {
      if (id % 3 == 0) {
        EXPECT_TRUE(full->Remove(id));
      } else {
        subset->Insert(id, cora.Values(id));
      }
    }
    EXPECT_EQ(full->size(), subset->size());
    EXPECT_EQ(CanonicalBlockBytes(CollectBlocks(*full)),
              CanonicalBlockBytes(CollectBlocks(*subset)));
  }
}

}  // namespace
}  // namespace sablock::index
