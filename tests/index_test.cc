// Unit tests for the incremental-index layer: Bind validation, Query
// semantics (including the sorted-neighbourhood window math), Remove
// behavior, and the IndexRegistry spec grammar. Cross-checks against the
// batch techniques live in index_parity_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/blocking_key.h"
#include "collect_blocks.h"
#include "common/random.h"
#include "core/blocking.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "index/lsh_index.h"
#include "index/sorted_index.h"
#include "index/token_index.h"

namespace sablock::index {
namespace {

data::Schema TwoAttrSchema() { return data::Schema({"name", "city"}); }

std::vector<std::string_view> Row(const std::vector<std::string>& values) {
  return {values.begin(), values.end()};
}

TEST(TokenIndexTest, BindRejectsMissingAttribute) {
  TokenPostingsIndex index({"name", "zip"});
  Status s = index.Bind(TwoAttrSchema());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("zip"), std::string::npos);
}

TEST(TokenIndexTest, QueryReturnsTokenSharers) {
  TokenPostingsIndex index({"name", "city"});
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  std::vector<std::string> b = {"Bob Smith", "Paris"};
  std::vector<std::string> c = {"Carol", "Berlin"};
  index.Insert(0, Row(a));
  index.Insert(1, Row(b));
  index.Insert(2, Row(c));
  EXPECT_EQ(index.size(), 3u);

  std::vector<std::string> probe = {"Dan Smith", "berlin!"};
  // Shares "smith" with 0 and 1, "berlin" with 0 and 2 (normalization
  // strips punctuation/case). Sorted distinct ids.
  EXPECT_EQ(index.Query(Row(probe)), (Ids{0, 1, 2}));
  std::vector<std::string> nothing = {"Zed", "Oslo"};
  EXPECT_TRUE(index.Query(Row(nothing)).empty());
}

TEST(TokenIndexTest, RemoveUnindexes) {
  TokenPostingsIndex index({"name", "city"});
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> a = {"Alice", "Berlin"};
  std::vector<std::string> b = {"Bob", "Berlin"};
  index.Insert(0, Row(a));
  index.Insert(1, Row(b));
  EXPECT_TRUE(index.Remove(0));
  EXPECT_FALSE(index.Remove(0));  // already gone
  EXPECT_EQ(index.size(), 1u);
  std::vector<std::string> probe = {"X", "Berlin"};
  EXPECT_EQ(index.Query(Row(probe)), (Ids{1}));
  // The surviving singleton posting emits no block.
  core::BlockCollection blocks = CollectBlocks(index);
  EXPECT_EQ(blocks.NumBlocks(), 0u);
}

TEST(SortedIndexTest, QueryWindowMath) {
  // Keys sort as a < b < c < d (ids 0..3). With window w the probe sees
  // the w-1 predecessors and w-2 successors of its sort position.
  SortedWindowIndex index({"name"}, 2);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  for (data::RecordId id = 0; id < 4; ++id) {
    std::vector<std::string> row = {std::string(1, 'a' + id), ""};
    index.Insert(id, Row(row));
  }
  // Probe key "bb" sorts between b (pos 1) and c (pos 2): probe position
  // 2, window 2 -> predecessors {b}, successors {} plus the record at the
  // probe's own slot... window [p-1, p] = positions 1..2 = {b, c}.
  std::vector<std::string> probe = {"bb", ""};
  EXPECT_EQ(index.Query(Row(probe)), (Ids{1, 2}));
  // A probe smaller than everything: position 0, window covers only c0.
  std::vector<std::string> first = {"0", ""};
  EXPECT_EQ(index.Query(Row(first)), (Ids{0}));
}

TEST(SortedIndexTest, OversizedWindowReturnsEverything) {
  SortedWindowIndex index({"name"}, 10);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  for (data::RecordId id = 0; id < 3; ++id) {
    std::vector<std::string> row = {std::string(1, 'z' - id), ""};
    index.Insert(id, Row(row));
  }
  std::vector<std::string> probe = {"m", ""};
  EXPECT_EQ(index.Query(Row(probe)), (Ids{0, 1, 2}));
}

TEST(SortedIndexTest, EqualKeysOrderByIdLikeStableSort) {
  SortedWindowIndex index({"name"}, 2);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> same = {"same", ""};
  index.Insert(0, Row(same));
  index.Insert(1, Row(same));
  index.Insert(2, Row(same));
  // Sliding window of 2 over the id-ordered run: {0,1}, {1,2}.
  core::BlockCollection blocks = CollectBlocks(index);
  ASSERT_EQ(blocks.NumBlocks(), 2u);
  EXPECT_EQ(AsVectors(blocks)[0], (Ids{0, 1}));
  EXPECT_EQ(AsVectors(blocks)[1], (Ids{1, 2}));
}

/// The live records that share a window with a probe, by definition: the
/// probe joins the live (key, id) list as the highest id, the list is
/// stably sorted by key, and every window of w consecutive entries (one
/// window of all of them when there are fewer than w) that holds the
/// probe contributes its other ids.
Ids WindowsWithProbe(const std::map<data::RecordId, std::string>& live,
                     const std::string& probe_key, size_t w) {
  std::vector<std::pair<std::string, data::RecordId>> order;
  for (const auto& [id, key] : live) order.emplace_back(key, id);
  const data::RecordId probe = live.empty() ? 0 : live.rbegin()->first + 1;
  order.emplace_back(probe_key, probe);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t starts = order.size() <= w ? 1 : order.size() - w + 1;
  std::set<data::RecordId> shared;
  for (size_t start = 0; start < starts; ++start) {
    const size_t end = std::min(start + w, order.size());
    bool holds = false;
    for (size_t i = start; i < end; ++i) holds |= order[i].second == probe;
    for (size_t i = start; holds && i < end; ++i) {
      if (order[i].second != probe) shared.insert(order[i].second);
    }
  }
  return {shared.begin(), shared.end()};
}

TEST(SortedIndexTest, QueryMatchesTheWindowsOfTheProbeInsertedIntoACopy) {
  // The values are already normalized, so a record's exact key is its
  // value. The pool repeats keys (ties) and holds the empty key; the
  // probes fall before the first key ("" and "0" when no empty key is
  // live), on ties, between keys and after the last ("zz").
  const std::vector<std::string> pool = {"", "b", "b", "c d", "e",
                                         "e", "f", "g h", "k"};
  const std::vector<std::string> probes = {"", "0", "a", "b",
                                           "ba", "e", "f", "zz"};
  Rng rng(0x50a);
  for (size_t w : {2, 3, 4, 7, 60}) {
    for (bool empty_keys : {true, false}) {
      SortedWindowIndex index({"name"}, static_cast<int>(w));
      ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
      std::map<data::RecordId, std::string> live;
      for (data::RecordId id = 0; id < 40; ++id) {
        std::string key = pool[rng.UniformIndex(pool.size())];
        if (key.empty() && !empty_keys) key = "m";
        const std::vector<std::string> row = {key, "x"};
        index.Insert(id, Row(row));
        live[id] = key;
        if (rng.UniformIndex(4) == 0) {  // remove a random live record
          auto victim = live.begin();
          std::advance(victim, rng.UniformIndex(live.size()));
          ASSERT_TRUE(index.Remove(victim->first));
          live.erase(victim);
        }
        // From one live record (w > n) up to ~30.
        for (const std::string& probe : probes) {
          const std::vector<std::string> probe_row = {probe, ""};
          ASSERT_EQ(index.Query(Row(probe_row)),
                    WindowsWithProbe(live, probe, w))
              << "w=" << w << " probe '" << probe << "', " << live.size()
              << " live";
        }
      }
    }
  }
}

TEST(LshIndexTest, IdenticalRecordsCollide) {
  core::LshParams params;
  params.k = 2;
  params.l = 4;
  params.q = 2;
  params.attributes = {"name", "city"};
  LshIndex index(params);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> a = {"alice example", "berlin"};
  index.Insert(0, Row(a));
  index.Insert(1, Row(a));
  EXPECT_EQ(index.Query(Row(a)), (Ids{0, 1}));
  EXPECT_TRUE(index.Remove(1));
  EXPECT_EQ(index.Query(Row(a)), (Ids{0}));
}

TEST(LshIndexTest, EmptyTextIsExcluded) {
  core::LshParams params;
  params.k = 2;
  params.l = 4;
  params.q = 2;
  params.attributes = {"name"};
  LshIndex index(params);
  ASSERT_TRUE(index.Bind(TwoAttrSchema()).ok());
  std::vector<std::string> empty = {"", "berlin"};
  index.Insert(0, Row(empty));
  index.Insert(1, Row(empty));
  EXPECT_EQ(index.size(), 2u);
  // Empty blocking text yields the empty-signature sentinel: never
  // bucketed, never a candidate (matching the batch LshBlocker).
  EXPECT_TRUE(index.Query(Row(empty)).empty());
  EXPECT_EQ(CollectBlocks(index).NumBlocks(), 0u);
  EXPECT_TRUE(index.Remove(0));
}

TEST(SaLshIndexTest, RemoveKeepsTheFeaturesOfSeenConcepts) {
  // A fresh concept arriving after a Remove must not rebuild the semhash
  // encoder from the live records alone: that dropped the features of the
  // removed record's concept, so later records with that concept got no
  // semantic bit and, in OR mode, entered no table at all.
  const std::string spec = "sa-lsh:k=1,l=4,q=2,w=5,mode=or,domain=bib";
  const data::Schema schema(
      {"authors", "title", "journal", "booktitle", "institution"});
  std::vector<std::string> journal = {"ann lee", "neural nets", "jair", "",
                                      ""};
  std::vector<std::string> booktitle = {"bo wu", "graph cuts", "", "nips",
                                        ""};
  std::vector<std::string> institution = {"cy ng", "tech report", "", "",
                                          "mit"};
  auto make = [&]() {
    std::unique_ptr<IncrementalIndex> index;
    EXPECT_TRUE(IndexRegistry::Global().Create(spec, &index).ok());
    EXPECT_TRUE(index->Bind(schema).ok());
    return index;
  };

  std::unique_ptr<IncrementalIndex> index = make();
  index->Insert(0, Row(journal));
  index->Insert(1, Row(booktitle));
  ASSERT_TRUE(index->Remove(0));
  index->Insert(2, Row(institution));  // a fresh concept after the Remove
  index->Insert(3, Row(journal));
  index->Insert(4, Row(journal));

  // The same live rows, indexed afresh.
  std::unique_ptr<IncrementalIndex> fresh = make();
  fresh->Insert(1, Row(booktitle));
  fresh->Insert(2, Row(institution));
  fresh->Insert(3, Row(journal));
  fresh->Insert(4, Row(journal));

  EXPECT_EQ(fresh->Query(Row(journal)), (Ids{3, 4}));
  EXPECT_EQ(CollectBlocks(*fresh).NumBlocks(), 4u);  // {3, 4} per table
  EXPECT_EQ(index->Query(Row(journal)), (Ids{3, 4}));
  EXPECT_EQ(CanonicalBlockBytes(CollectBlocks(*index)),
            CanonicalBlockBytes(CollectBlocks(*fresh)));
}

TEST(IndexRegistryTest, ListContainsAndAliases) {
  IndexRegistry& registry = IndexRegistry::Global();
  EXPECT_TRUE(registry.Contains("lsh"));
  EXPECT_TRUE(registry.Contains("sa-lsh"));
  EXPECT_TRUE(registry.Contains("salsh"));   // alias
  EXPECT_TRUE(registry.Contains("token"));   // alias
  EXPECT_TRUE(registry.Contains("sorted"));  // alias
  EXPECT_FALSE(registry.Contains("nope"));
  std::vector<api::BlockerInfo> entries = registry.List();
  ASSERT_EQ(entries.size(), 4u);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].name, entries[i].name);
  }
}

TEST(IndexRegistryTest, CreateFromSpecString) {
  std::unique_ptr<IncrementalIndex> index;
  Status s = IndexRegistry::Global().Create(
      "token:attrs=name+city", &index);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(index->Bind(TwoAttrSchema()).ok());
  // lsh and sa-lsh build one class; its name labels the index_* metrics.
  const std::vector<std::pair<std::string, std::string>> names = {
      {"lsh:k=4,l=12", "LshIndex(k=4,l=12)"},
      {"sa-lsh:k=4,l=12,w=5,mode=or,domain=bib",
       "SaLshIndex(k=4,l=12,w=5,OR)"},
      {"sa-lsh:k=2,l=3,w=1,mode=and,domain=bib",
       "SaLshIndex(k=2,l=3,w=1,AND)"}};
  for (const auto& [spec, name] : names) {
    ASSERT_TRUE(IndexRegistry::Global().Create(spec, &index).ok()) << spec;
    EXPECT_EQ(index->name(), name);
  }
}

TEST(IndexRegistryTest, RejectsUnknownNameAndBadParams) {
  std::unique_ptr<IncrementalIndex> index;
  EXPECT_FALSE(IndexRegistry::Global().Create("nope", &index).ok());
  EXPECT_FALSE(IndexRegistry::Global().Create("lsh:k=0", &index).ok());
  EXPECT_FALSE(
      IndexRegistry::Global().Create("sor-a:window=1", &index).ok());
  EXPECT_FALSE(
      IndexRegistry::Global().Create("lsh:bogus-param=3", &index).ok());
}

}  // namespace
}  // namespace sablock::index
