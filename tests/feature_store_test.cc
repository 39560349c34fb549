// Tests for the shared feature-extraction layer: column correctness
// against direct recomputation, build-exactly-once semantics and the
// cooperative multi-chunk build under concurrent getters (a
// tools/check.sh --tsan target), zero-copy slices sharing the parent's
// arena and store, and cache invalidation on Add.

#include "features/feature_store.h"

#include <algorithm>
#include <cstdint>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/minhash.h"
#include "data/cora_generator.h"
#include "data/record.h"
#include "data/voter_generator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "reference_text.h"
#include "text/qgram.h"

namespace sablock::features {
namespace {

data::Dataset TinyDataset() {
  data::Dataset d{data::Schema({"name", "city"})};
  d.Add({{"Ada Lovelace", "London"}}, 0);
  d.Add({{"A. Lovelace", "london"}}, 0);
  d.Add({{"Grace Hopper", "New York"}}, 1);
  d.Add({{"", ""}}, data::kUnknownEntity);
  return d;
}

const std::vector<std::string>& NameCity() {
  static const std::vector<std::string> attrs = {"name", "city"};
  return attrs;
}

/// Two columns hold the same values and offsets arrays.
template <typename T>
bool SameRows(const Rows<T>& a, const Rows<T>& b) {
  return std::ranges::equal(a.values(), b.values()) &&
         std::ranges::equal(a.offsets(), b.offsets());
}

TEST(FeatureStoreTest, TextColumnMatchesDefinedText) {
  data::Dataset d = TinyDataset();
  const auto texts = d.features().TextsFor(NameCity());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_EQ(texts.Row(id), DefinedText(d, id, NameCity())) << id;
  }
}

TEST(FeatureStoreTest, TokenColumnInternsSortedDistinctTokens) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  const auto tokens = features.TokensFor(NameCity());
  const TokenColumn& column = features.store().Tokens(NameCity());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::span<const TokenId> ids = tokens.Row(id);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    // Interned strings round-trip to the distinct words of the text.
    std::vector<std::string> words =
        SplitWords(DefinedText(d, id, NameCity()));
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    std::vector<std::string> from_ids;
    for (TokenId t : ids) {
      EXPECT_LT(t, tokens.column().token_limit());
      from_ids.emplace_back(column.Token(t));
    }
    std::sort(from_ids.begin(), from_ids.end());
    EXPECT_EQ(from_ids, words) << id;
  }
}

TEST(FeatureStoreTest, TokenIdsAreColumnLocalAndDense) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  const auto wide = features.TokensFor(NameCity());
  const auto narrow = features.TokensFor({"city"});
  // Each column interns its own vocabulary: the narrow column's ids stay
  // dense in it, whatever the wide column interned first.
  EXPECT_LT(narrow.column().token_limit(), wide.column().token_limit());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    for (TokenId t : narrow.Row(id)) {
      EXPECT_LT(t, narrow.column().token_limit());
    }
  }
}

TEST(FeatureStoreTest, TextColumnsDoNotPayForTokenization) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  features.TextsFor(NameCity());
  features.TextsFor({"name"});
  // Text-only consumers (blocking keys) never build a token column.
  EXPECT_EQ(features.store().catalog().tokens.size(), 0u);
  features.TokensFor(NameCity());
  EXPECT_EQ(features.store().catalog().tokens.size(), 1u);
}

TEST(FeatureStoreTest, ShingleColumnMatchesQGramHashes) {
  data::Dataset d = TinyDataset();
  const auto shingles = d.features().ShinglesFor(NameCity(), 3);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_TRUE(std::ranges::equal(
        shingles.Row(id),
        text::QGramHashes(DefinedText(d, id, NameCity()), 3)))
        << id;
  }
}

TEST(FeatureStoreTest, SignatureColumnMatchesDirectMinhash) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  const auto sigs = features.SignaturesFor(NameCity(), 3, 16, 7);
  core::MinHasher hasher(16, 7);
  const auto shingles = features.ShinglesFor(NameCity(), 3);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    std::span<const uint64_t> row = sigs.Row(id);
    EXPECT_EQ(std::vector<uint64_t>(row.begin(), row.end()),
              hasher.Signature(shingles.Row(id)))
        << id;
  }
}

TEST(FeatureStoreTest, DistinctKeysAreDistinctColumns) {
  data::Dataset d = TinyDataset();
  FeatureView features = d.features();
  // Different q, attribute subsets, hash counts and seeds are all
  // separate cache entries; so are band columns that split the same k·l
  // rows into other tables.
  features.ShinglesFor(NameCity(), 2);
  features.ShinglesFor(NameCity(), 3);
  features.ShinglesFor({"name"}, 2);
  features.SignaturesFor(NameCity(), 2, 8, 7);
  features.SignaturesFor(NameCity(), 2, 8, 11);
  features.BandsFor(NameCity(), 2, 2, 4, 7);
  features.BandsFor(NameCity(), 2, 4, 2, 7);
  features.BandsFor(NameCity(), 2, 4, 2, 11);
  FeatureStore::Catalog built = features.store().catalog();
  EXPECT_EQ(built.shingles.size(), 3u);
  EXPECT_EQ(built.signatures.size(), 2u);
  EXPECT_EQ(built.bands.size(), 3u);
}

/// A Cora-like dataset spanning many chunks of a cooperative build.
data::Dataset ManyChunkDataset() {
  data::CoraGeneratorConfig config;
  config.num_entities = 400;
  config.num_records = 8000;
  config.seed = 7;
  return data::GenerateCoraLike(config);
}

/// Process-wide cache telemetry of one column kind (see ColumnMetrics).
struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;

  static CacheCounts Of(const char* column) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return {registry
                .GetCounter("featurestore_hits",
                            "column requests served from the cache",
                            "column", column)
                ->value(),
            registry
                .GetCounter("featurestore_misses",
                            "column requests that paid a build", "column",
                            column)
                ->value()};
  }
  CacheCounts Since(const CacheCounts& before) const {
    return {hits - before.hits, misses - before.misses};
  }
};

/// Runs `body(thread_index)` on `threads` threads released together.
template <typename Body>
void RaceThreads(int threads, Body body) {
  std::latch start(threads);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

TEST(FeatureStoreTest, EightThreadsRacingGettersBuildEachCacheOnce) {
  const data::Dataset d = ManyChunkDataset();
  const std::vector<std::string> attrs = {"authors", "title"};
  const FeatureStore& store = d.features().store();
  const CacheCounts texts_before = CacheCounts::Of("text");
  const CacheCounts tokens_before = CacheCounts::Of("token");
  const CacheCounts shingles_before = CacheCounts::Of("shingle");
  const CacheCounts sigs_before = CacheCounts::Of("signature");

  // Half the threads ask for signatures first and half for tokens first,
  // so both derived builds race over their shared text column.
  constexpr int kThreads = 8;
  std::vector<const TokenColumn*> token_cols(kThreads);
  std::vector<const SignatureColumn*> sig_cols(kThreads);
  RaceThreads(kThreads, [&](int t) {
    if (t % 2 == 0) {
      sig_cols[t] = &store.Signatures(attrs, 4, 64, 7);
      token_cols[t] = &store.Tokens(attrs);
    } else {
      token_cols[t] = &store.Tokens(attrs);
      sig_cols[t] = &store.Signatures(attrs, 4, 64, 7);
    }
  });

  FeatureStore::Catalog built = store.catalog();
  EXPECT_EQ(built.texts.size(), 1u);
  EXPECT_EQ(built.tokens.size(), 1u);
  EXPECT_EQ(built.shingles.size(), 1u);
  EXPECT_EQ(built.signatures.size(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(token_cols[t], token_cols[0]);
    EXPECT_EQ(sig_cols[t], sig_cols[0]);
  }

  // Telemetry as with a serial build: each getter call is one hit or
  // miss, and helping with a parent column is not a getter call. The
  // text column is asked for by the shingle and token builds' starters.
  const CacheCounts texts = CacheCounts::Of("text").Since(texts_before);
  const CacheCounts tokens = CacheCounts::Of("token").Since(tokens_before);
  const CacheCounts shingles =
      CacheCounts::Of("shingle").Since(shingles_before);
  const CacheCounts sigs = CacheCounts::Of("signature").Since(sigs_before);
  EXPECT_EQ(texts.misses, 1u);
  EXPECT_EQ(texts.hits, 1u);
  EXPECT_EQ(shingles.misses, 1u);
  EXPECT_EQ(shingles.hits, 0u);
  EXPECT_EQ(tokens.misses, 1u);
  EXPECT_EQ(tokens.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(sigs.misses, 1u);
  EXPECT_EQ(sigs.hits, static_cast<uint64_t>(kThreads - 1));

  // The raced columns hold the bytes of a single-threaded build.
  const data::Dataset serial = d.ColdCopy();
  const FeatureStore& reference = serial.features().store();
  const TokenColumn& tokens_ref = reference.Tokens(attrs);
  EXPECT_TRUE(SameRows(token_cols[0]->rows(), tokens_ref.rows()));
  EXPECT_TRUE(std::ranges::equal(token_cols[0]->vocabulary(),
                                 tokens_ref.vocabulary()));
  EXPECT_TRUE(SameRows(store.Texts(attrs), reference.Texts(attrs)));
  EXPECT_TRUE(
      SameRows(store.Shingles(attrs, 4), reference.Shingles(attrs, 4)));
  EXPECT_TRUE(std::ranges::equal(sig_cols[0]->rows,
                                 reference.Signatures(attrs, 4, 64, 7).rows));
  EXPECT_EQ(sig_cols[0]->rows.data(), sig_cols[0]->data.get());
  // ...and every chunk covered its records: direct recomputation.
  const core::MinHasher hasher(64, 7);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::vector<uint64_t> direct = hasher.Signature(
        text::QGramHashes(DefinedText(d, id, attrs), 4));
    ASSERT_TRUE(std::ranges::equal(sig_cols[0]->Row(id), direct)) << id;
  }
}

TEST(FeatureStoreTest, RacingGettersNeverRebuildAnAdoptedColumn) {
  const data::Dataset d = ManyChunkDataset();
  const std::vector<std::string> attrs = {"authors", "title"};
  const SignatureColumn& built =
      d.features().store().Signatures(attrs, 4, 64, 7);

  // Adopted like a snapshot's matrix: aliased, not owned (`d` keeps the
  // built column alive for the whole test).
  FeatureStore adopted(d);
  SignatureColumn column;
  column.num_hashes = 64;
  column.rows = built.rows;
  ASSERT_TRUE(adopted.AdoptSignatures(attrs, 4, 64, 7, std::move(column)));
  const CacheCounts before = CacheCounts::Of("signature");

  constexpr int kThreads = 8;
  std::vector<const SignatureColumn*> sig_cols(kThreads);
  RaceThreads(kThreads, [&](int t) {
    sig_cols[t] = &adopted.Signatures(attrs, 4, 64, 7);
  });

  // The adoption is the only build, and no getter reached for the
  // adopted column's parents.
  FeatureStore::Catalog entered = adopted.catalog();
  EXPECT_EQ(entered.signatures.size(), 1u);
  EXPECT_EQ(entered.shingles.size(), 0u);
  EXPECT_EQ(entered.texts.size(), 0u);
  const CacheCounts counts = CacheCounts::Of("signature").Since(before);
  EXPECT_EQ(counts.hits, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(counts.misses, 0u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(sig_cols[t], sig_cols[0]);
  EXPECT_EQ(sig_cols[0]->rows.data(), built.rows.data());
}

/// Record `id`'s band keys by the definition (Section 5.1), with none of
/// core::LshBander's code: DefinedText -> its distinct q-gram hashes ->
/// k·l minhash rows -> LshBandKey over rows [t·k, t·k + k) for table t.
/// None for an empty text, whose record enters no table.
std::vector<uint64_t> DefinedBands(const data::Dataset& d, data::RecordId id,
                                   const std::vector<std::string>& attributes,
                                   int q, int k, int l, uint64_t seed) {
  const std::string text = DefinedText(d, id, attributes);
  if (text.empty()) return {};
  const std::vector<uint64_t> signature =
      core::MinHasher(k * l, seed).Signature(text::QGramHashes(text, q));
  std::vector<uint64_t> keys;
  for (int t = 0; t < l; ++t) keys.push_back(core::LshBandKey(signature, t, k));
  return keys;
}

/// `source` with the blocking `attributes` of every 37th record cleared
/// (an empty text), of every 41st set to "x" (a text shorter than q) and
/// of every 43rd set to punctuation (a non-empty value whose text is
/// empty), so band columns over it have marks in several chunks.
data::Dataset WithEmptyAndShortTexts(
    const data::Dataset& source, const std::vector<std::string>& attributes) {
  data::Dataset d{source.schema()};
  for (data::RecordId id = 0; id < source.size(); ++id) {
    std::vector<std::string> values(source.Values(id).begin(),
                                    source.Values(id).end());
    for (const std::string& attribute : attributes) {
      std::string& value =
          values[static_cast<size_t>(source.schema().IndexOf(attribute))];
      if (id % 37 == 0) value.clear();
      if (id % 41 == 0) value = attribute == attributes.front() ? "x" : "";
      if (id % 43 == 0) value = "?!";
    }
    const std::vector<std::string_view> views(values.begin(), values.end());
    d.AddRow(views, source.entity(id));
  }
  return d;
}

/// Seeded Voter and Cora corpora of three chunks each, with empty and
/// short texts, and the blocking attributes and a (q, k, l) of each.
struct BandCorpus {
  data::Dataset records;
  std::vector<std::string> attributes;
  int q, k, l;
};
std::vector<BandCorpus> BandCorpora() {
  data::VoterGeneratorConfig voter;
  voter.num_records = 1300;
  voter.seed = 5;
  data::CoraGeneratorConfig cora;
  cora.num_entities = 60;
  cora.num_records = 1300;
  cora.seed = 6;
  const std::vector<std::string> names = {"first_name", "last_name"};
  const std::vector<std::string> citation = {"authors", "title"};
  return {
      {WithEmptyAndShortTexts(data::GenerateVoterLike(voter), names), names,
       2, 9, 15},
      {WithEmptyAndShortTexts(data::GenerateCoraLike(cora), citation),
       citation, 4, 3, 10}};
}

TEST(FeatureStoreTest, BandColumnMatchesTheDefinition) {
  for (const BandCorpus& corpus : BandCorpora()) {
    const data::Dataset& d = corpus.records;
    const auto bands = d.features().BandsFor(corpus.attributes, corpus.q,
                                             corpus.k, corpus.l, 7);
    const BandColumn& column = bands.column();
    ASSERT_EQ(column.size(), d.size());
    EXPECT_EQ(column.tables, static_cast<uint32_t>(corpus.l));
    size_t empty = 0;
    size_t short_texts = 0;
    for (data::RecordId id = 0; id < d.size(); ++id) {
      const std::string text = DefinedText(d, id, corpus.attributes);
      if (text.empty()) ++empty;
      if (!text.empty() && text.size() < static_cast<size_t>(corpus.q)) {
        ++short_texts;
      }
      const std::vector<uint64_t> defined =
          DefinedBands(d, id, corpus.attributes, corpus.q, corpus.k,
                       corpus.l, 7);
      ASSERT_TRUE(std::ranges::equal(bands.Row(id), defined)) << id;
      // Empty texts are marked exactly: a mark, not a key value.
      EXPECT_EQ(column.Empty(id), text.empty()) << id;
    }
    EXPECT_GT(empty, 40u);
    EXPECT_GT(short_texts, 20u);
  }
}

TEST(FeatureStoreTest, FourThreadsRacingABandColumnBuildItOnce) {
  for (const BandCorpus& corpus : BandCorpora()) {
    const data::Dataset& d = corpus.records;
    const FeatureStore& store = d.features().store();
    const CacheCounts texts_before = CacheCounts::Of("text");
    const CacheCounts bands_before = CacheCounts::Of("band");

    constexpr int kThreads = 4;
    std::vector<const BandColumn*> columns(kThreads);
    RaceThreads(kThreads, [&](int t) {
      columns[t] = &store.Bands(corpus.attributes, corpus.q, corpus.k,
                                corpus.l, 7);
    });

    // One build, counted once: one band miss and a hit per other getter.
    // The text column is asked for once, by the band build's starter;
    // the helpers' share of it is not a getter call.
    const FeatureStore::Catalog built = store.catalog();
    EXPECT_EQ(built.bands.size(), 1u);
    EXPECT_EQ(built.texts.size(), 1u);
    EXPECT_EQ(built.shingles.size(), 0u);
    EXPECT_EQ(built.signatures.size(), 0u);
    const CacheCounts bands = CacheCounts::Of("band").Since(bands_before);
    const CacheCounts texts = CacheCounts::Of("text").Since(texts_before);
    EXPECT_EQ(bands.misses, 1u);
    EXPECT_EQ(bands.hits, static_cast<uint64_t>(kThreads - 1));
    EXPECT_EQ(texts.misses, 1u);
    EXPECT_EQ(texts.hits, 0u);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(columns[t], columns[0]);

    // The raced column holds the words of a one-thread build.
    const data::Dataset serial = d.ColdCopy();
    const BandColumn& reference = serial.features().store().Bands(
        corpus.attributes, corpus.q, corpus.k, corpus.l, 7);
    EXPECT_TRUE(std::ranges::equal(columns[0]->keys, reference.keys));
    EXPECT_TRUE(std::ranges::equal(columns[0]->empty, reference.empty));
    EXPECT_EQ(columns[0]->keys.data(), columns[0]->data.get());
  }
}

TEST(FeatureStoreTest, SlicesShareTheParentStoreWithOffset) {
  data::Dataset d = TinyDataset();
  FeatureView parent = d.features();  // materialize before slicing
  const auto parent_shingles = parent.ShinglesFor(NameCity(), 3);

  data::Dataset slice = d.Slice(1, 3);
  FeatureView sliced = slice.features();
  EXPECT_EQ(&sliced.store(), &parent.store());
  const auto slice_shingles = sliced.ShinglesFor(NameCity(), 3);
  for (data::RecordId id = 0; id < slice.size(); ++id) {
    EXPECT_EQ(slice_shingles.Row(id).data(),
              parent_shingles.Row(id + 1).data());
    EXPECT_EQ(slice_shingles.Row(id).size(),
              parent_shingles.Row(id + 1).size());
  }
  // No rebuild happened for the slice.
  EXPECT_EQ(parent.store().catalog().shingles.size(), 1u);

  // Nested slices compose offsets.
  data::Dataset nested = slice.Slice(1, 2);
  const auto nested_shingles = nested.features().ShinglesFor(NameCity(), 3);
  EXPECT_EQ(nested_shingles.Row(0).data(), parent_shingles.Row(2).data());
}

TEST(FeatureStoreTest, SliceOfColdDatasetBuildsItsOwnCorrectStore) {
  data::Dataset d = TinyDataset();
  data::Dataset slice = d.Slice(1, 3);  // parent store never materialized
  FeatureView features = slice.features();
  EXPECT_EQ(features.size(), 2u);
  const auto texts = features.TextsFor(NameCity());
  for (data::RecordId id = 0; id < slice.size(); ++id) {
    EXPECT_EQ(texts.Row(id), DefinedText(d, id + 1, NameCity()));
  }
}

TEST(FeatureStoreTest, AddInvalidatesTheFeatureCache) {
  data::Dataset d = TinyDataset();
  FeatureView before = d.features();
  EXPECT_EQ(before.size(), 4u);
  d.Add({{"Katherine Johnson", "Hampton"}}, 2);
  FeatureView after = d.features();
  EXPECT_EQ(after.size(), 5u);
  EXPECT_NE(&after.store(), &before.store());
  EXPECT_EQ(after.TextsFor(NameCity()).Row(4), "katherine johnson hampton");
}

TEST(FeatureStoreTest, AddRowInvalidatesTheFeatureCache) {
  // The serving-path mutation: AddRow (raw views, as CandidateService
  // uses) must version-bump and invalidate exactly like Add, so a grown
  // dataset never serves stale tokens/signatures.
  data::Dataset d = TinyDataset();
  const uint64_t version_before = d.version();
  FeatureView before = d.features();
  std::vector<std::string> values = {"Katherine Johnson", "Hampton"};
  std::vector<std::string_view> views = {values.begin(), values.end()};
  d.AddRow(views, 2);
  EXPECT_GT(d.version(), version_before);
  FeatureView after = d.features();
  EXPECT_EQ(after.size(), 5u);
  EXPECT_NE(&after.store(), &before.store());
  EXPECT_EQ(after.TextsFor(NameCity()).Row(4), "katherine johnson hampton");
  EXPECT_EQ(after.store().dataset_version(), d.version());
}

TEST(FeatureStoreTest, HandlesCoOwnTheStoreAcrossInvalidation) {
  data::Dataset d = TinyDataset();
  const auto shingles = d.features().ShinglesFor(NameCity(), 3);
  const std::span<const uint64_t> row = shingles.Row(0);
  const std::vector<uint64_t> before(row.begin(), row.end());
  // Add drops the dataset's pointer to the old store; the handle keeps
  // the snapshot alive and keeps serving pre-Add features.
  d.Add({{"Katherine Johnson", "Hampton"}}, 2);
  EXPECT_TRUE(std::ranges::equal(shingles.Row(0), before));
  // A handle obtained through a temporary slice is equally safe.
  const auto texts = d.Slice(0, 2).features().TextsFor(NameCity());
  EXPECT_EQ(texts.Row(0), "ada lovelace london");
}

TEST(FeatureStoreTest, StoreOutlivesTheOriginatingDataset) {
  FeatureView features;
  {
    data::Dataset d = TinyDataset();
    features = d.features();
    features.TextsFor(NameCity());
  }
  // The view's shared_ptr keeps the store (and its arena snapshot) alive.
  EXPECT_EQ(features.TextsFor(NameCity()).Row(2), "grace hopper new york");
}

}  // namespace
}  // namespace sablock::features
