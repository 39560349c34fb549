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
//
// Under Insert/Remove/Query traffic, every index Query is compared with the
// live records that share a key with the probe in some table, the keys
// taken from the same definitions over the features of every concept ever
// inserted, and the final EmitBlocks with those records' groups.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "collect_blocks.h"
#include "common/hashing.h"
#include "common/random.h"
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
#include "index/lsh_index.h"
#include "split_load.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace sablock {

/// Global operator new calls so far: a call that allocates nothing leaves
/// it unchanged.
std::atomic<size_t> g_allocations{0};

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

/// The leaf ordinals under record `id`'s interpreted concepts.
std::set<uint32_t> Leaves(const Corpus& corpus, data::RecordId id) {
  const core::Taxonomy& taxonomy = corpus.domain.semantics->taxonomy();
  std::set<uint32_t> leaves;
  for (core::ConceptId c : corpus.domain.semantics->Interpret(corpus.records,
                                                              id)) {
    for (uint32_t o = 0; o < taxonomy.TotalLeaves(); ++o) {
      if (taxonomy.Subsumes(c, taxonomy.LeafAt(o))) leaves.insert(o);
    }
  }
  return leaves;
}

/// The semantic feature bits of every record over the features `used`
/// (leaf ordinals, ascending; empty when the dimension is 0): bit f of a
/// record is set iff a concept of its interpretation subsumes leaf f.
std::vector<std::vector<bool>> SemanticBits(const Corpus& corpus,
                                            const std::set<uint32_t>& used) {
  const data::Dataset& d = corpus.records;
  const core::SemanticFunction& semantics = *corpus.domain.semantics;
  const core::Taxonomy& taxonomy = semantics.taxonomy();
  const std::vector<uint32_t> features(used.begin(), used.end());
  std::vector<std::vector<bool>> bits(d.size());
  if (features.empty()) return bits;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    bits[id].assign(features.size(), false);
    for (size_t f = 0; f < features.size(); ++f) {
      for (core::ConceptId c : semantics.Interpret(d, id)) {
        if (taxonomy.Subsumes(c, taxonomy.LeafAt(features[f]))) {
          bits[id][f] = true;
        }
      }
    }
  }
  return bits;
}

/// A record's keys in every table: the band's k-tuple, and the tags it is
/// keyed under there, -1 for the band alone and f for drawn bit f in OR
/// mode. A table with no tag holds no bucket of the record.
struct TableKeys {
  std::vector<std::vector<uint64_t>> bands;  // per table; none: no shingles
  std::vector<std::vector<int64_t>> tags;    // per table
};

/// Every record's TableKeys under `s`, over the semantic features `used`.
std::vector<TableKeys> Keys(const Corpus& corpus, const Setting& s,
                            const std::set<uint32_t>& used) {
  const data::Dataset& d = corpus.records;
  const size_t rows = static_cast<size_t>(s.k) * static_cast<size_t>(s.l);
  std::vector<std::vector<bool>> bits;
  if (s.w > 0) bits = SemanticBits(corpus, used);
  const uint32_t dim =
      bits.empty() ? 0 : static_cast<uint32_t>(bits.front().size());
  std::vector<std::vector<size_t>> chosen(static_cast<size_t>(s.l));
  for (int t = 0; t < s.l && dim > 0; ++t) {
    core::SemanticParams params;
    params.w = s.w;
    params.mode = s.mode;
    params.seed = s.sem_seed;
    chosen[static_cast<size_t>(t)] = core::SemanticTableChoices(params, dim, t);
  }
  std::vector<TableKeys> keys(d.size());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::set<uint64_t> shingles =
        Shingles(d, id, corpus.attributes, s.q);
    if (shingles.empty()) continue;  // enters no table
    std::vector<uint64_t> minhash;
    for (size_t i = 0; i < rows; ++i) {
      const UniversalHash h = UniversalHash::FromSeed(s.seed, i);
      uint64_t min = UINT64_MAX;
      for (uint64_t x : shingles) min = std::min(min, h(x));
      minhash.push_back(min);
    }
    for (size_t t = 0; t < static_cast<size_t>(s.l); ++t) {
      const auto band = minhash.begin() + static_cast<std::ptrdiff_t>(t * s.k);
      keys[id].bands.emplace_back(band, band + s.k);
      std::vector<int64_t>& tags = keys[id].tags.emplace_back();
      if (dim == 0) {
        tags.push_back(-1);
      } else if (s.mode == core::SemanticMode::kAnd) {
        const bool all = std::all_of(chosen[t].begin(), chosen[t].end(),
                                     [&](size_t f) { return bits[id][f]; });
        if (all) tags.push_back(-1);
      } else {
        for (size_t f : chosen[t]) {
          if (bits[id][f]) tags.push_back(static_cast<int64_t>(f));
        }
      }
    }
  }
  return keys;
}

/// Record id -> the corpus record whose values it was inserted with.
using Rows = std::map<data::RecordId, data::RecordId>;

/// Each table's groups of at least 2 of `records` in canonical content
/// order, tables in order.
std::vector<core::Block> Groups(const std::vector<TableKeys>& keys,
                                const Rows& records, int l) {
  std::vector<core::Block> out;
  for (size_t t = 0; t < static_cast<size_t>(l); ++t) {
    std::map<std::pair<std::vector<uint64_t>, int64_t>, core::Block> groups;
    for (const auto& [id, row] : records) {
      if (keys[row].bands.empty()) continue;
      for (int64_t tag : keys[row].tags[t]) {
        groups[{keys[row].bands[t], tag}].push_back(id);
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

std::vector<core::Block> Oracle(const Corpus& corpus, const Setting& s) {
  std::set<uint32_t> used;
  Rows records;
  for (data::RecordId id = 0; id < corpus.records.size(); ++id) {
    const std::set<uint32_t> leaves = Leaves(corpus, id);
    used.insert(leaves.begin(), leaves.end());
    records[id] = id;
  }
  return Groups(Keys(corpus, s, used), records, s.l);
}

/// The records of `live` that share a key with corpus record `probe` in
/// some table, ascending.
std::vector<data::RecordId> SharingAKey(const std::vector<TableKeys>& keys,
                                        data::RecordId probe,
                                        const Rows& live) {
  const TableKeys& p = keys[probe];
  std::vector<data::RecordId> out;
  for (const auto& [id, row] : live) {
    const TableKeys& r = keys[row];
    for (size_t t = 0; t < p.bands.size() && !r.bands.empty(); ++t) {
      const bool shared = std::any_of(
          p.tags[t].begin(), p.tags[t].end(), [&](int64_t tag) {
            return std::count(r.tags[t].begin(), r.tags[t].end(), tag) > 0;
          });
      if (shared && p.bands[t] == r.bands[t]) {
        out.push_back(id);
        break;
      }
    }
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
    const features::FeatureStore::Catalog adopted = store.catalog();
    // lsh and sa-lsh read band columns only: the file carried one per
    // (q, k, l) the settings use.
    EXPECT_GT(adopted.bands.size(), 0u);
    for (const Setting& setting : settings) {
      const std::string spec = setting.Spec(loaded);
      EXPECT_EQ(RunTechnique(spec, loaded.records), Oracle(loaded, setting))
          << spec << " compress=" << compress;
    }
    // The runs read the adopted columns and built none.
    const features::FeatureStore::Catalog after = store.catalog();
    EXPECT_EQ(after.texts.size(), adopted.texts.size());
    EXPECT_EQ(after.shingles.size(), adopted.shingles.size());
    EXPECT_EQ(after.signatures.size(), adopted.signatures.size());
    EXPECT_EQ(after.bands.size(), adopted.bands.size());
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
  const features::FeatureStore::Catalog adopted = store.catalog();
  ASSERT_EQ(adopted.bands.size(), 0u);
  ASSERT_GT(adopted.signatures.size(), 0u);
  // Run every setting twice: the first run builds its band column from
  // the adopted text, the second reuses it.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Setting& setting : settings) {
      const std::string spec = setting.Spec(loaded);
      EXPECT_EQ(RunTechnique(spec, loaded.records), Oracle(loaded, setting))
          << spec << " pass " << pass;
    }
  }
  const features::FeatureStore::Catalog after = store.catalog();
  EXPECT_EQ(after.bands.size(), band_columns.size());
  EXPECT_EQ(after.texts.size(), adopted.texts.size());
  EXPECT_EQ(after.shingles.size(), adopted.shingles.size());
  EXPECT_EQ(after.signatures.size(), adopted.signatures.size());
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

/// The corpus records that add no semantic feature to the record with the
/// fewest: inserting only these leaves the dimension where it started.
std::vector<data::RecordId> NarrowRecords(const Corpus& corpus) {
  std::vector<std::set<uint32_t>> leaves;
  size_t narrowest = 0;
  for (data::RecordId id = 0; id < corpus.records.size(); ++id) {
    leaves.push_back(Leaves(corpus, id));
    if (leaves[id].size() < leaves[narrowest].size()) narrowest = id;
  }
  std::vector<data::RecordId> narrow;
  for (data::RecordId id = 0; id < corpus.records.size(); ++id) {
    if (std::includes(leaves[narrowest].begin(), leaves[narrowest].end(),
                      leaves[id].begin(), leaves[id].end())) {
      narrow.push_back(id);
    }
  }
  return narrow;
}

size_t Compactions(const index::IncrementalIndex& idx) {
  return dynamic_cast<const index::LshIndex&>(idx).compactions();
}

TEST_P(LshOracleTest, IndexQueriesUnderTrafficMatchTheDefinitions) {
  const Corpus corpus = GetParam()();
  const data::Dataset& d = corpus.records;
  const std::vector<data::RecordId> narrow = NarrowRecords(corpus);
  std::vector<std::set<uint32_t>> leaves;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    leaves.push_back(Leaves(corpus, id));
  }
  for (const Setting& setting : Settings(corpus)) {
    const std::string spec = setting.Spec(corpus);
    SCOPED_TRACE(spec);
    std::unique_ptr<index::IncrementalIndex> idx;
    ASSERT_TRUE(index::IndexRegistry::Global().Create(spec, &idx).ok());
    ASSERT_TRUE(idx->Bind(d.schema()).ok());

    std::set<uint32_t> used;  // the leaves of every concept ever inserted
    std::vector<TableKeys> keys = Keys(corpus, setting, used);
    Rows live;
    std::vector<data::RecordId> dead;
    std::map<data::RecordId, size_t> compactions_before;  // per live id
    data::RecordId next = 0;
    size_t threshold_compactions = 0;
    size_t growths_after_a_compaction = 0;
    size_t base_removes = 0;
    size_t delta_removes = 0;
    size_t not_live_removes = 0;

    auto insert = [&](data::RecordId row) {
      const size_t compactions = Compactions(*idx);
      const size_t features = used.size();
      idx->Insert(next, d.Values(row));
      compactions_before[next] = compactions;
      live[next++] = row;
      used.insert(leaves[row].begin(), leaves[row].end());
      const bool grew = setting.w > 0 && used.size() > features;
      if (grew) keys = Keys(corpus, setting, used);
      if (grew && compactions > 0) ++growths_after_a_compaction;
      if (!grew) threshold_compactions += Compactions(*idx) - compactions;
    };
    auto remove = [&](data::RecordId id) {
      const size_t compactions = Compactions(*idx);
      ++(compactions > compactions_before.at(id) ? base_removes
                                                 : delta_removes);
      ASSERT_TRUE(idx->Remove(id)) << id;
      threshold_compactions += Compactions(*idx) - compactions;
      live.erase(id);
      compactions_before.erase(id);
      dead.push_back(id);
    };
    auto remove_not_live = [&](data::RecordId id) {
      const size_t allocations = g_allocations.load();
      const bool removed = idx->Remove(id);
      EXPECT_EQ(g_allocations.load(), allocations) << id;
      EXPECT_FALSE(removed) << id;
      ++not_live_removes;
    };

    // The narrow records first, until the index has compacted, so that the
    // traffic's first new concept grows the dimension after a compaction.
    const size_t warm = index::LshIndex::kCompactionFloor + 50;
    for (size_t i = 0; i < warm; ++i) insert(narrow[i % narrow.size()]);
    Rng rng(0x0c1e + static_cast<uint64_t>(setting.k * 31 + setting.l));
    for (int op = 0; op < 1800; ++op) {
      const auto row = static_cast<data::RecordId>(rng.UniformIndex(d.size()));
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind < 5) {
        insert(row);
      } else if (kind < 7 && !live.empty()) {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.UniformIndex(live.size())));
        remove(it->first);
      } else if (kind == 7) {
        // Never inserted (the largest id among them), or removed already.
        const data::RecordId not_live[] = {
            0xFFFFFFFFu, next + static_cast<data::RecordId>(row),
            dead.empty() ? next : dead[rng.UniformIndex(dead.size())]};
        remove_not_live(not_live[op % 3]);
      } else {
        ASSERT_EQ(idx->Query(d.Values(row)), SharingAKey(keys, row, live))
            << "op " << op << ", probe " << row;
      }
    }
    EXPECT_EQ(idx->size(), live.size());
    EXPECT_EQ(index::CollectBlocks(*idx).blocks(),
              Groups(keys, live, setting.l));
    // The traffic covered what it is meant to.
    EXPECT_GE(threshold_compactions, 3u);
    if (setting.w > 0) {
      EXPECT_GE(growths_after_a_compaction, 1u);
    }
    EXPECT_GT(base_removes, 0u);
    EXPECT_GT(delta_removes, 0u);
    EXPECT_GT(not_live_removes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, LshOracleTest,
                         ::testing::Values(&CoraCorpus, &VoterCorpus));

}  // namespace
}  // namespace sablock

// A replacement pair over malloc and free, counting the calls. GCC cannot
// see that the pair matches once it inlines the delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  sablock::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
