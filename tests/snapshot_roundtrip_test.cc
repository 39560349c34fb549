// Snapshot roundtrip goldens: CSV-parsed/generated dataset -> .sab
// container -> loaded dataset must be invisible to every registry
// technique. The same 19 specs as tests/feature_golden_test.cc run on
// the golden Cora-like corpus against the parsed dataset and against a
// snapshot-loaded copy (features pre-warmed and adopted zero-copy), and
// must produce identical block sets, distinct-pair counts and metrics —
// for both section encodings.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "collect_blocks.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "data/csv.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace sablock {
namespace {

// One spec per registered technique family, pinned seeds — kept in sync
// with tests/feature_golden_test.cc (which pins these specs' absolute
// outputs; this test pins that a snapshot roundtrip does not move them).
const char* const kSpecs[] = {
    "tblo:attrs=authors+title",
    "sor-a:window=3,attrs=authors+title",
    "sor-ii:window=3,attrs=authors+title",
    "sor-mp:window=3,attrs=authors+title",
    "asor:sim=jaro_winkler,threshold=0.8,max-block=50,attrs=authors+title",
    "qgram:q=2,threshold=0.8,max-keys=64,attrs=title",
    "sua:min-suffix=4,max-block=20,attrs=authors+title",
    "suas:min-suffix=4,max-block=20,attrs=title",
    "rsua:min-suffix=4,max-block=20,sim=jaro_winkler,threshold=0.9,"
    "attrs=authors+title",
    "stmt:threshold=0.9,grid=100,dim=15,seed=73,attrs=authors+title",
    "stmnn:nn=5,grid=100,dim=15,seed=73,attrs=authors+title",
    "cath:sim=jaccard,loose=0.4,tight=0.8,seed=31,attrs=authors+title",
    "cann:sim=tfidf,n1=10,n2=5,seed=31,attrs=authors+title",
    "meta:weighting=cbs,pruning=wep,max-block=500,attrs=authors+title",
    "lsh:k=2,l=8,q=3,seed=7,attrs=authors+title",
    "sa-lsh:k=2,l=8,q=3,seed=7,w=5,mode=or,domain=bib,sem-seed=11,"
    "attrs=authors+title",
    "mp-lsh:k=2,l=8,q=3,seed=7,probes=2,attrs=authors+title",
    "forest:k=2,l=8,q=3,seed=7,depth=10,max-block=25,attrs=authors+title",
    "harra:k=2,l=8,q=3,seed=7,merge-threshold=0.5,iterations=2,"
    "attrs=authors+title",
};

data::Dataset GoldenDataset() {
  data::CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 400;
  config.seed = 42;
  return data::GenerateCoraLike(config);
}

std::string TmpPath(const char* tag) {
  return "/tmp/sablock-roundtrip-" + std::to_string(::getpid()) + "-" +
         tag + ".sab";
}

std::unique_ptr<core::BlockingTechnique> MustCreate(const std::string& spec) {
  std::unique_ptr<core::BlockingTechnique> technique;
  Status status = api::BlockerRegistry::Global().Create(spec, &technique);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return technique;
}

/// Canonical form of a block collection: blocks sorted internally and
/// against each other. The round trip must keep the block *sets*; each
/// technique's emission order is pinned by its own goldens. Neither store
/// has global token ids: every token column interns its own vocabulary,
/// the same way when built and when adopted.
std::vector<Ids> Canonical(const core::BlockCollection& blocks) {
  std::vector<Ids> canon = AsVectors(blocks);
  for (Ids& b : canon) std::sort(b.begin(), b.end());
  std::sort(canon.begin(), canon.end());
  return canon;
}

TEST(SnapshotRoundtripTest, EveryRegistryTechniqueSurvivesTheRoundtrip) {
  data::Dataset parsed = GoldenDataset();

  // Parsed-path reference runs; these also warm the feature store with
  // every column the 19 techniques touch, so the snapshot carries the
  // full feature catalog.
  std::vector<std::vector<Ids>> reference;
  std::vector<eval::Metrics> reference_metrics;
  for (const char* spec : kSpecs) {
    std::unique_ptr<core::BlockingTechnique> t = MustCreate(spec);
    ASSERT_NE(t, nullptr);
    core::BlockCollection blocks;
    t->Run(parsed, blocks);
    reference.push_back(Canonical(blocks));
    reference_metrics.push_back(eval::Evaluate(parsed, blocks));
  }

  for (bool compress : {false, true}) {
    const std::string path = TmpPath(compress ? "comp" : "raw");
    store::WriteOptions options;
    options.compress = compress;
    store::WriteInfo write_info;
    Status s = store::WriteSnapshot(path, parsed, options, &write_info);
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_GT(write_info.feature_sections, 0u);

    data::Dataset loaded;
    store::SnapshotInfo info;
    s = store::LoadSnapshot(path, {}, &loaded, &info);
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_EQ(info.records, parsed.size());

    for (size_t i = 0; i < std::size(kSpecs); ++i) {
      std::unique_ptr<core::BlockingTechnique> t = MustCreate(kSpecs[i]);
      ASSERT_NE(t, nullptr);
      core::BlockCollection blocks;
      t->Run(loaded, blocks);
      EXPECT_EQ(Canonical(blocks), reference[i])
          << kSpecs[i] << (compress ? " (compressed)" : " (raw)");
      eval::Metrics m = eval::Evaluate(loaded, blocks);
      EXPECT_EQ(m.distinct_pairs, reference_metrics[i].distinct_pairs)
          << kSpecs[i];
      EXPECT_DOUBLE_EQ(m.pc, reference_metrics[i].pc) << kSpecs[i];
      EXPECT_DOUBLE_EQ(m.pq, reference_metrics[i].pq) << kSpecs[i];
      EXPECT_DOUBLE_EQ(m.rr, reference_metrics[i].rr) << kSpecs[i];
    }
    std::remove(path.c_str());
  }
}

// The CSV boundary: a dataset written to CSV, read back, snapshotted and
// loaded must still block identically — the full sablock_cli
// --save-snapshot / --load-snapshot path in miniature.
TEST(SnapshotRoundtripTest, CsvToSnapshotMatchesDirectParse) {
  data::Dataset generated = GoldenDataset();
  const std::string csv_path =
      "/tmp/sablock-roundtrip-" + std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(data::WriteCsv(csv_path, generated, "entity").ok());
  data::Dataset parsed;
  ASSERT_TRUE(data::ReadCsv(csv_path, "entity", &parsed).ok());

  const std::string sab_path = TmpPath("csv");
  ASSERT_TRUE(store::WriteSnapshot(sab_path, parsed).ok());
  data::Dataset loaded;
  ASSERT_TRUE(store::LoadSnapshot(sab_path, {}, &loaded).ok());

  ASSERT_EQ(loaded.size(), generated.size());
  std::unique_ptr<core::BlockingTechnique> t =
      MustCreate("tblo:attrs=authors+title");
  core::BlockCollection direct;
  t->Run(generated, direct);
  core::BlockCollection roundtripped;
  t->Run(loaded, roundtripped);
  EXPECT_EQ(Canonical(roundtripped), Canonical(direct));
  std::remove(csv_path.c_str());
  std::remove(sab_path.c_str());
}

}  // namespace
}  // namespace sablock
