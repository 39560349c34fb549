// The per-record path under hostile input. A record's blocking text and
// its blocking key are each computed by one function over attribute
// positions resolved once (data::BlockingText, baselines::RowKey); the
// FeatureStore's text columns, Dataset::ConcatenatedValues, RowKey,
// KeyBuilder and the incremental indexes all go through them. Here the
// attribute lists run out of schema order and name an attribute the
// schema lacks, and the values are empty or carry punctuation, mixed
// case, non-ASCII bytes and whitespace runs. Texts and keys are checked
// against literals and against the definition (the non-empty values in
// list order, joined by one space, then NormalizeForMatching), and the
// `token`, `sor-a`, `lsh` and `sa-lsh` indexes must emit their batch
// twin's exact block sequence on such a corpus.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
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
    EXPECT_EQ(d.ConcatenatedValues(id, attributes), expected[id]);
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
    EXPECT_EQ(d.ConcatenatedValues(id, attributes), defined) << id;
    EXPECT_EQ(texts.Row(id), defined) << id;
  }
  EXPECT_GT(empty, 0u);  // the corpus holds records with no blocking text
  EXPECT_LT(empty, d.size());
}

TEST(PerRecordPathTest, KeysEqualTheDefinitionOnAHostileCorpus) {
  const data::Dataset d = HostileCorpus();
  baselines::BlockingKeyDef def = baselines::ExactKey({"authors"});
  def.components.push_back(
      {"no_such_attribute", baselines::KeyComponent::Encoding::kSoundex, 0});
  def.components.push_back(
      {"title", baselines::KeyComponent::Encoding::kPrefix, 6});
  const baselines::KeyBuilder builder(d, def);
  const std::vector<int> positions =
      d.schema().Positions(baselines::KeyAttributes(def));
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::string defined =
        DefinedText(d, id, {"authors"}) +
        DefinedText(d, id, {"title"}).substr(0, 6);
    EXPECT_EQ(baselines::RowKey(def, positions, d.Values(id)), defined)
        << id;
    EXPECT_EQ(builder.Key(id), defined) << id;
  }
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
