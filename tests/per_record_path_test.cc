// The per-record path under hostile input. A record's blocking text and
// its blocking key are each computed by one function over attribute
// positions resolved once (data::BlockingText, baselines::RowKey); the
// FeatureStore's text columns, RowKey, KeyBuilder and the incremental
// indexes all go through them. Here the attribute lists run out of schema
// order and name an attribute the schema lacks, and the values are empty
// or carry punctuation, mixed case, non-ASCII bytes and whitespace runs.
// Texts and keys are checked against literals and against the definition
// (the non-empty values in list order, joined by one space, then
// NormalizeForMatching; a key joins each attribute's text with no
// separator), `tblo` and `sor-a` against references built from those
// keys, and the `token`, `sor-a`, `lsh` and `sa-lsh` indexes must emit
// their batch twin's exact block sequence on such a corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.h"
#include "baselines/blocking_key.h"
#include "collect_blocks.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "data/record.h"
#include "features/feature_store.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "reference_text.h"

namespace sablock {
namespace {

/// Rewrites `value` of record `id` into one of several hostile spellings
/// that keep its tokens: empty, upper case, punctuation and whitespace
/// runs between words, non-ASCII bytes around it.
std::string Hostile(std::string value, data::RecordId id, size_t column) {
  if ((id + column) % 7 == 0 || id % 11 == 5) return "";
  if (id % 5 == 1) {
    for (char& c : value) c = static_cast<char>(std::toupper(c));
  }
  if (id % 3 == 2) {
    std::string spread;
    for (char c : value) {
      if (c == ' ') {
        spread += " ,;\t  ";
      } else {
        spread += c;
      }
    }
    value = spread;
  }
  if (id % 4 == 3) value = "\xc3\xa9\xff " + value + "\t\n\xe2\x80\x94";
  if (id % 6 == 4) value = "--(" + value + ")!!";
  return value;
}

/// A Cora-like corpus whose every value went through Hostile.
data::Dataset HostileCorpus() {
  data::CoraGeneratorConfig config;
  config.num_records = 300;
  config.num_entities = 40;
  config.seed = 7;
  const data::Dataset clean = data::GenerateCoraLike(config);
  data::Dataset hostile(clean.schema());
  for (data::RecordId id = 0; id < clean.size(); ++id) {
    const std::span<const std::string_view> row = clean.Values(id);
    data::Record record;
    record.values.assign(row.begin(), row.end());
    for (size_t c = 0; c < record.values.size(); ++c) {
      record.values[c] = Hostile(record.values[c], id, c);
    }
    hostile.Add(record, clean.entity(id));
  }
  return hostile;
}

TEST(PerRecordPathTest, BlockingTextFollowsTheListOrderAndSkipsMissingNames) {
  data::Dataset d{data::Schema({"a", "b", "c"})};
  d.Add({{"  Hello,\tWORLD!! ", "", "\xc3\x9cn\xc3\xaf" "code\xff-Bytes  x"}});
  d.Add({{"", "", ""}});
  d.Add({{"MiXeD   case", "---", "42"}});
  const std::vector<std::string> attributes = {"c", "missing", "b", "a"};
  const std::vector<std::string> expected = {"n code bytes x hello world", "",
                                             "42 mixed case"};
  features::FeatureView::Handle<features::TextColumn> texts =
      d.features().TextsFor(attributes);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_EQ(texts.Row(id), expected[id]);
    EXPECT_EQ(DefinedText(d, id, attributes), expected[id]);
  }
  EXPECT_EQ(d.schema().Positions(attributes), (std::vector<int>{2, -1, 1, 0}));
}

TEST(PerRecordPathTest, TextRowsEqualTheDefinitionOnAHostileCorpus) {
  const data::Dataset d = HostileCorpus();
  // Out of schema order (title comes first there), with a missing name.
  const std::vector<std::string> attributes = {"authors", "no_such_attribute",
                                               "title"};
  ASSERT_LT(d.schema().IndexOf("title"), d.schema().IndexOf("authors"));
  features::FeatureView::Handle<features::TextColumn> texts =
      d.features().TextsFor(attributes);
  size_t empty = 0;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::string defined = DefinedText(d, id, attributes);
    empty += defined.empty() ? 1 : 0;
    EXPECT_EQ(texts.Row(id), defined) << id;
  }
  EXPECT_GT(empty, 0u);  // the corpus holds records with no blocking text
  EXPECT_LT(empty, d.size());
}

/// A record's blocking key by its definition: the DefinedText of each
/// listed attribute on its own, joined with no separator.
std::string DefinedKey(const data::Dataset& d, data::RecordId id,
                       const std::vector<std::string>& attributes) {
  std::string key;
  for (const std::string& attribute : attributes) {
    key += DefinedText(d, id, {attribute});
  }
  return key;
}

/// Out of schema order (title comes first there), with a missing name.
const std::vector<std::string> kListedAttributes = {
    "authors", "no_such_attribute", "title"};

TEST(PerRecordPathTest, KeysEqualTheDefinitionOnAHostileCorpus) {
  const data::Dataset d = HostileCorpus();
  const baselines::KeyBuilder builder(d, kListedAttributes);
  const std::vector<int> positions = d.schema().Positions(kListedAttributes);
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::string defined = DefinedKey(d, id, kListedAttributes);
    EXPECT_EQ(baselines::RowKey(positions, d.Values(id)), defined) << id;
    EXPECT_EQ(builder.Key(id), defined) << id;
  }
}

TEST(PerRecordPathTest, TbloAndSorAEqualTheirDefinitionsOnAHostileCorpus) {
  const data::Dataset d = HostileCorpus();
  const std::string attrs = "attrs=authors+no_such_attribute+title";
  std::vector<std::string> keys;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    keys.push_back(DefinedKey(d, id, kListedAttributes));
  }

  // tblo: every group of at least 2 records with equal non-empty keys,
  // compared as a multiset.
  std::map<std::string, Ids> groups;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    if (!keys[id].empty()) groups[keys[id]].push_back(id);
  }
  std::vector<Ids> want_tblo;
  for (const auto& [key, ids] : groups) {
    if (ids.size() >= 2) want_tblo.push_back(ids);
  }
  std::unique_ptr<core::BlockingTechnique> tblo;
  ASSERT_TRUE(
      api::BlockerRegistry::Global().Create("tblo:" + attrs, &tblo).ok());
  core::BlockCollection tblo_blocks;
  tblo->Run(d, tblo_blocks);
  std::vector<Ids> got_tblo = AsVectors(tblo_blocks);
  for (Ids& block : got_tblo) std::sort(block.begin(), block.end());
  std::sort(want_tblo.begin(), want_tblo.end());
  std::sort(got_tblo.begin(), got_tblo.end());
  EXPECT_GT(want_tblo.size(), 0u);
  EXPECT_EQ(got_tblo, want_tblo);

  // sor-a: all ids stably sorted by key, then every run of `window`
  // consecutive ids in that order, as a sequence.
  constexpr size_t kWindow = 3;
  Ids order(d.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](data::RecordId a, data::RecordId b) {
                     return keys[a] < keys[b];
                   });
  std::vector<Ids> want_sor;
  for (size_t start = 0; start + kWindow <= order.size(); ++start) {
    want_sor.emplace_back(order.begin() + start,
                          order.begin() + start + kWindow);
  }
  const std::string sor_spec =
      "sor-a:window=" + std::to_string(kWindow) + "," + attrs;
  std::unique_ptr<core::BlockingTechnique> sor;
  ASSERT_TRUE(api::BlockerRegistry::Global().Create(sor_spec, &sor).ok());
  core::BlockCollection sor_blocks;
  sor->Run(d, sor_blocks);
  EXPECT_EQ(AsVectors(sor_blocks), want_sor);
  // An index refuses a name its schema lacks at Bind; by the definition
  // such a name adds nothing to a key, so the index takes the list
  // without it and must emit the same windows.
  std::unique_ptr<index::IncrementalIndex> sor_index;
  ASSERT_TRUE(index::IndexRegistry::Global()
                  .Create("sor-a:window=" + std::to_string(kWindow) +
                              ",attrs=authors+title",
                          &sor_index)
                  .ok());
  index::LoadDataset(*sor_index, d);
  EXPECT_EQ(AsVectors(index::CollectBlocks(*sor_index)), want_sor);
}

TEST(PerRecordPathTest, IndexesEmitTheirBatchTwinsBlocksOnAHostileCorpus) {
  const data::Dataset d = HostileCorpus();
  for (const std::string spec :
       {"token:attrs=authors+title", "sor-a:window=3,attrs=authors+title",
        "lsh:k=4,l=12,q=4,attrs=authors+title",
        "sa-lsh:k=4,l=12,q=4,w=5,mode=or,domain=bib,attrs=authors+title"}) {
    SCOPED_TRACE(spec);
    std::unique_ptr<core::BlockingTechnique> technique;
    Status status = api::BlockerRegistry::Global().Create(spec, &technique);
    ASSERT_TRUE(status.ok()) << status.message();
    core::BlockCollection batch;
    technique->Run(d, batch);
    std::unique_ptr<index::IncrementalIndex> built;
    status = index::IndexRegistry::Global().Create(spec, &built);
    ASSERT_TRUE(status.ok()) << status.message();
    index::LoadDataset(*built, d);
    EXPECT_GT(batch.NumBlocks(), 0u);
    EXPECT_EQ(AsVectors(index::CollectBlocks(*built)), AsVectors(batch));
  }
}

TEST(PerRecordPathTest, EveryIndexNamesTheFirstMissingAttribute) {
  const data::Schema schema({"title", "authors"});
  for (const std::string spec :
       {"token:attrs=authors+no_such+other", "sor-a:attrs=authors+no_such",
        "lsh:attrs=no_such+title", "sa-lsh:attrs=title+no_such"}) {
    SCOPED_TRACE(spec);
    std::unique_ptr<index::IncrementalIndex> built;
    ASSERT_TRUE(index::IndexRegistry::Global().Create(spec, &built).ok());
    const Status status = built->Bind(schema);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              "index attribute 'no_such' is not in the schema");
  }
}

}  // namespace
}  // namespace sablock
