// A from-definition oracle for the paper's technique (sa-lsh, Section 5)
// and its LSH baseline (lsh). The reference works from the definitions
// with strings, std::set and std::map, and no FeatureStore, MinHasher,
// SIMD kernel, LshBuckets, FlatMap, SemhashEncoder or engine:
//
//  - text: the record's non-empty attribute values joined by one space,
//    then NormalizeForMatching;
//  - shingles: the distinct HashBytes of every q-character window; the
//    whole text when it is shorter than q; none when it is empty;
//  - minhash row i: the minimum of UniversalHash::FromSeed(seed, i) over
//    the shingles (Section 5.1);
//  - table t: the records that have shingles, grouped by their k-tuple of
//    rows [t·k, t·k + k);
//  - semantic features (Section 5.2, Algorithm 1): the leaf ordinals under
//    all records' interpreted concepts, ascending; bit f of a record is
//    set iff a concept of its interpretation subsumes leaf f; table t's w
//    draws are core::SemanticTableChoices, the seeded draw being part of
//    the spec;
//  - AND keeps a record in its band group only if all drawn bits are set;
//    OR puts it in one (band, drawn bit) group per set drawn bit; with no
//    features the band alone is the key;
//  - output: each table's groups of at least 2 records in canonical
//    content order, tables in order.
//
// Exact block sequences are compared against the registry's `lsh` and
// `sa-lsh` (OR and AND) on a parsed dataset and on snapshot-loaded ones
// (raw and compressed, features adopted, and a file with no band
// section, as written before band columns existed), and against the
// incremental index's EmitBlocks after LoadDataset (a bulk load), after
// one-by-one inserts, and after one-by-one inserts of the first third and
// a bulk load of the rest. Each corpus carries records whose blocking attributes
// are empty, which no table may hold.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "common/hashing.h"
#include "common/string_util.h"
#include "core/blocking.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "data/cora_generator.h"
#include "data/csv.h"
#include "data/record.h"
#include "data/voter_generator.h"
#include "features/feature_store.h"
#include "gtest/gtest.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "split_load.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace sablock {
namespace {

/// One corpus: its records, blocking attributes and semantic domain.
struct Corpus {
  const char* name;
  data::Dataset records;
  std::vector<std::string> attributes;
  core::Domain domain;
  const char* domain_spec;  // sa-lsh's domain= value
};

/// One spec's parameters; w == 0 is plain lsh.
struct Setting {
  int k;
  int l;
  int q;
  int w;
  core::SemanticMode mode = core::SemanticMode::kOr;
  uint64_t seed = 7;       // the registry's default hash-family seed
  uint64_t sem_seed = 11;  // the registry's default sem-seed

  std::string Spec(const Corpus& corpus) const {
    std::string attrs;
    for (const std::string& attr : corpus.attributes) {
      attrs += (attrs.empty() ? "" : "+") + attr;
    }
    std::string spec = std::string(w == 0 ? "lsh" : "sa-lsh") +
                       ":k=" + std::to_string(k) + ",l=" + std::to_string(l) +
                       ",q=" + std::to_string(q) + ",attrs=" + attrs;
    if (w > 0) {
      spec += ",w=" + std::to_string(w) + ",mode=" +
              (mode == core::SemanticMode::kAnd ? "and" : "or") +
              ",domain=" + corpus.domain_spec;
    }
    return spec;
  }
};

/// Records whose blocking attributes are all empty: copies of the first
/// records with those values cleared (their other attributes stay).
void AddRecordsWithoutShingles(const std::vector<std::string>& attributes,
                               data::Dataset* d) {
  for (data::RecordId source = 0; source < 3; ++source) {
    std::vector<std::string> values(d->Values(source).begin(),
                                    d->Values(source).end());
    for (const std::string& attr : attributes) {
      values[static_cast<size_t>(d->schema().IndexOf(attr))].clear();
    }
    const std::vector<std::string_view> views(values.begin(), values.end());
    d->AddRow(views);
  }
}

Corpus CoraCorpus() {
  data::CoraGeneratorConfig config;
  config.num_entities = 30;
  config.num_records = 297;
  config.seed = 61;
  Corpus corpus{"cora", data::GenerateCoraLike(config),
                {"authors", "title"}, core::MakeBibliographicDomain(), "bib"};
  AddRecordsWithoutShingles(corpus.attributes, &corpus.records);
  return corpus;
}

Corpus VoterCorpus() {
  data::VoterGeneratorConfig config;
  config.num_records = 297;
  config.seed = 62;
  config.duplicate_fraction = 0.5;
  Corpus corpus{"voter", data::GenerateVoterLike(config),
                {"first_name", "last_name"}, core::MakeVoterDomain(),
                "voter"};
  AddRecordsWithoutShingles(corpus.attributes, &corpus.records);
  return corpus;
}

/// Two settings per technique and mode for each corpus; the voter ones
/// include the paper's Fig. 13 point (k=9, l=15, q=2, w=12, OR). AND
/// draws few bits: every drawn bit must be set, and a voter record holds
/// one gender and one race.
std::vector<Setting> Settings(const Corpus& corpus) {
  using core::SemanticMode;
  if (std::string(corpus.name) == "cora") {
    return {{4, 10, 3, 0},
            {2, 6, 4, 0},
            {3, 8, 3, 2, SemanticMode::kOr},
            {2, 5, 4, 5, SemanticMode::kOr},
            {3, 8, 3, 2, SemanticMode::kAnd},
            {2, 5, 4, 1, SemanticMode::kAnd}};
  }
  return {{9, 15, 2, 0},
          {3, 6, 3, 0},
          {9, 15, 2, 12, SemanticMode::kOr},
          {2, 4, 2, 3, SemanticMode::kOr},
          {9, 15, 2, 1, SemanticMode::kAnd},
          {3, 6, 2, 2, SemanticMode::kAnd}};
}

/// The distinct q-gram hashes of record `id`'s blocking text.
std::set<uint64_t> Shingles(const data::Dataset& d, data::RecordId id,
                            const std::vector<std::string>& attributes,
                            int q) {
  std::string joined;
  for (const std::string& attr : attributes) {
    const std::string_view value = d.Value(id, attr);
    if (value.empty()) continue;
    if (!joined.empty()) joined += ' ';
    joined += value;
  }
  const std::string text = NormalizeForMatching(joined);
  std::set<uint64_t> shingles;
  if (text.empty()) return shingles;
  if (text.size() < static_cast<size_t>(q)) return {HashBytes(text)};
  for (size_t i = 0; i + static_cast<size_t>(q) <= text.size(); ++i) {
    shingles.insert(HashBytes(std::string_view(text).substr(i, q)));
  }
  return shingles;
}

/// The semantic feature bits of every record (empty when the dimension
/// is 0), from the interpretations and the taxonomy's subsumption.
std::vector<std::vector<bool>> SemanticBits(const Corpus& corpus) {
  const data::Dataset& d = corpus.records;
  const core::SemanticFunction& semantics = *corpus.domain.semantics;
  const core::Taxonomy& taxonomy = semantics.taxonomy();
  std::vector<std::vector<core::ConceptId>> zetas;
  std::set<uint32_t> used;  // leaf ordinals under an interpreted concept
  for (data::RecordId id = 0; id < d.size(); ++id) {
    zetas.push_back(semantics.Interpret(d, id));
    for (core::ConceptId c : zetas.back()) {
      for (uint32_t o = 0; o < taxonomy.TotalLeaves(); ++o) {
        if (taxonomy.Subsumes(c, taxonomy.LeafAt(o))) used.insert(o);
      }
    }
  }
  const std::vector<uint32_t> features(used.begin(), used.end());
  std::vector<std::vector<bool>> bits(d.size());
  if (features.empty()) return bits;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    bits[id].assign(features.size(), false);
    for (size_t f = 0; f < features.size(); ++f) {
      for (core::ConceptId c : zetas[id]) {
        if (taxonomy.Subsumes(c, taxonomy.LeafAt(features[f]))) {
          bits[id][f] = true;
        }
      }
    }
  }
  return bits;
}

std::vector<core::Block> Oracle(const Corpus& corpus, const Setting& s) {
  const data::Dataset& d = corpus.records;
  const size_t rows = static_cast<size_t>(s.k) * static_cast<size_t>(s.l);
  std::vector<std::vector<uint64_t>> minhash(d.size());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::set<uint64_t> shingles =
        Shingles(d, id, corpus.attributes, s.q);
    if (shingles.empty()) continue;  // enters no table
    for (size_t i = 0; i < rows; ++i) {
      const UniversalHash h = UniversalHash::FromSeed(s.seed, i);
      uint64_t min = UINT64_MAX;
      for (uint64_t x : shingles) min = std::min(min, h(x));
      minhash[id].push_back(min);
    }
  }
  std::vector<std::vector<bool>> bits;
  if (s.w > 0) bits = SemanticBits(corpus);
  const uint32_t dim =
      bits.empty() ? 0 : static_cast<uint32_t>(bits.front().size());

  std::vector<core::Block> out;
  for (int t = 0; t < s.l; ++t) {
    // Key: the band's k-tuple and the drawn bit (-1: the band alone).
    std::map<std::pair<std::vector<uint64_t>, int64_t>, core::Block> groups;
    std::vector<size_t> chosen;
    if (dim > 0) {
      core::SemanticParams params;
      params.w = s.w;
      params.mode = s.mode;
      params.seed = s.sem_seed;
      chosen = core::SemanticTableChoices(params, dim, t);
    }
    for (data::RecordId id = 0; id < d.size(); ++id) {
      if (minhash[id].empty()) continue;
      const std::vector<uint64_t> band(
          minhash[id].begin() + static_cast<std::ptrdiff_t>(t * s.k),
          minhash[id].begin() + static_cast<std::ptrdiff_t>(t * s.k + s.k));
      if (dim == 0) {
        groups[{band, -1}].push_back(id);
      } else if (s.mode == core::SemanticMode::kAnd) {
        const bool all = std::all_of(chosen.begin(), chosen.end(),
                                     [&](size_t f) { return bits[id][f]; });
        if (all) groups[{band, -1}].push_back(id);
      } else {
        for (size_t f : chosen) {
          if (bits[id][f]) {
            groups[{band, static_cast<int64_t>(f)}].push_back(id);
          }
        }
      }
    }
    std::vector<core::Block> table;
    for (auto& [key, members] : groups) {
      if (members.size() >= 2) table.push_back(std::move(members));
    }
    std::sort(table.begin(), table.end());
    out.insert(out.end(), table.begin(), table.end());
  }
  return out;
}

std::vector<core::Block> RunTechnique(const std::string& spec,
                                      const data::Dataset& d) {
  std::unique_ptr<core::BlockingTechnique> technique;
  Status s = api::BlockerRegistry::Global().Create(spec, &technique);
  EXPECT_TRUE(s.ok()) << spec << ": " << s.message();
  if (!s.ok()) return {};
  core::BlockCollection blocks;
  technique->Run(d, blocks);
  return blocks.blocks();
}

std::string TmpPath(const char* tag) {
  return "/tmp/sablock-lsh-oracle-" + std::to_string(::getpid()) + "-" + tag;
}

/// `corpus` with its records replaced by their CSV round trip.
Corpus Parsed(Corpus corpus) {
  const std::string path = TmpPath("parsed.csv");
  EXPECT_TRUE(data::WriteCsv(path, corpus.records, "entity").ok());
  data::Dataset parsed;
  Status s = data::ReadCsv(path, "entity", &parsed);
  std::remove(path.c_str());
  EXPECT_TRUE(s.ok()) << s.message();
  corpus.records = std::move(parsed);
  return corpus;
}

class LshOracleTest : public ::testing::TestWithParam<Corpus (*)()> {};

TEST_P(LshOracleTest, TechniquesOnAParsedDataset) {
  const Corpus corpus = Parsed(GetParam()());
  for (const Setting& setting : Settings(corpus)) {
    const std::string spec = setting.Spec(corpus);
    const std::vector<core::Block> oracle = Oracle(corpus, setting);
    ASSERT_FALSE(oracle.empty()) << spec;
    EXPECT_EQ(RunTechnique(spec, corpus.records), oracle) << spec;
  }
}

TEST_P(LshOracleTest, TechniquesOnSnapshotLoadedDatasets) {
  const Corpus original = GetParam()();
  const std::vector<Setting> settings = Settings(original);
  for (bool compress : {false, true}) {
    // Warm every setting's columns, so the snapshot carries them and the
    // loaded dataset runs on adopted features.
    const data::Dataset warm = original.records.ColdCopy();
    for (const Setting& setting : settings) {
      RunTechnique(setting.Spec(original), warm);
    }
    const std::string path = TmpPath("loaded.sab");
    store::WriteOptions options;
    options.compress = compress;
    store::WriteInfo written;
    ASSERT_TRUE(store::WriteSnapshot(path, warm, options, &written).ok());
    Corpus loaded{original.name, {}, original.attributes, original.domain,
                  original.domain_spec};
    store::SnapshotInfo info;
    Status s = store::LoadSnapshot(path, {}, &loaded.records, &info);
    std::remove(path.c_str());
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_GT(written.feature_sections, 0u);
    EXPECT_EQ(info.feature_sections, written.feature_sections);
    const features::FeatureStore& store = loaded.records.features().store();
    const features::FeatureStore::Stats adopted = store.stats();
    // lsh and sa-lsh read band columns only: the file carried one per
    // (q, k, l) the settings use.
    EXPECT_GT(adopted.band_builds, 0u);
    for (const Setting& setting : settings) {
      const std::string spec = setting.Spec(loaded);
      EXPECT_EQ(RunTechnique(spec, loaded.records), Oracle(loaded, setting))
          << spec << " compress=" << compress;
    }
    // The runs read the adopted columns and built none.
    const features::FeatureStore::Stats after = store.stats();
    EXPECT_EQ(after.text_builds, adopted.text_builds);
    EXPECT_EQ(after.shingle_builds, adopted.shingle_builds);
    EXPECT_EQ(after.signature_builds, adopted.signature_builds);
    EXPECT_EQ(after.band_builds, adopted.band_builds);
  }
}

TEST_P(LshOracleTest, TechniquesOnSnapshotsWithoutBandSections) {
  // A file written before band columns existed: an lsh run then warmed
  // the text, shingle and signature columns, whose sections are unchanged.
  const Corpus original = GetParam()();
  const std::vector<Setting> settings = Settings(original);
  const data::Dataset warm = original.records.ColdCopy();
  std::set<std::vector<int>> band_columns;  // distinct (q, k, l)
  for (const Setting& setting : settings) {
    warm.features().SignaturesFor(original.attributes, setting.q,
                                  setting.k * setting.l, setting.seed);
    band_columns.insert({setting.q, setting.k, setting.l});
  }
  const std::string path = TmpPath("no-bands.sab");
  ASSERT_TRUE(store::WriteSnapshot(path, warm).ok());
  Corpus loaded{original.name, {}, original.attributes, original.domain,
                original.domain_spec};
  Status s = store::LoadSnapshot(path, {}, &loaded.records);
  std::remove(path.c_str());
  ASSERT_TRUE(s.ok()) << s.message();
  const features::FeatureStore& store = loaded.records.features().store();
  const features::FeatureStore::Stats adopted = store.stats();
  ASSERT_EQ(adopted.band_builds, 0u);
  ASSERT_GT(adopted.signature_builds, 0u);
  // Run every setting twice: the first run builds its band column from
  // the adopted text, the second reuses it.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Setting& setting : settings) {
      const std::string spec = setting.Spec(loaded);
      EXPECT_EQ(RunTechnique(spec, loaded.records), Oracle(loaded, setting))
          << spec << " pass " << pass;
    }
  }
  const features::FeatureStore::Stats after = store.stats();
  EXPECT_EQ(after.band_builds, band_columns.size());
  EXPECT_EQ(after.text_builds, adopted.text_builds);
  EXPECT_EQ(after.shingle_builds, adopted.shingle_builds);
  EXPECT_EQ(after.signature_builds, adopted.signature_builds);
}

TEST_P(LshOracleTest, IndexesAfterLoadDataset) {
  const Corpus corpus = GetParam()();
  for (const Setting& setting : Settings(corpus)) {
    const std::string spec = setting.Spec(corpus);
    std::unique_ptr<index::IncrementalIndex> idx;
    Status s = index::IndexRegistry::Global().Create(spec, &idx);
    ASSERT_TRUE(s.ok()) << spec << ": " << s.message();
    index::LoadDataset(*idx, corpus.records);
    EXPECT_EQ(index::CollectBlocks(*idx).blocks(), Oracle(corpus, setting))
        << spec;
    // LoadDataset bulk-loads. Insert every record one by one, or the first
    // third one by one and bulk-load the rest: the same oracle holds.
    const size_t n = corpus.records.size();
    for (size_t bulk_from : {n, n / 3}) {
      EXPECT_EQ(
          index::CollectBlocks(*SplitLoad(spec, corpus.records, bulk_from))
              .blocks(),
          Oracle(corpus, setting))
          << spec << ", records before the bulk load: " << bulk_from;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, LshOracleTest,
                         ::testing::Values(&CoraCorpus, &VoterCorpus));

}  // namespace
}  // namespace sablock
