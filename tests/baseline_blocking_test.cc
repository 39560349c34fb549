// Tests for blocking keys, TBlo, SorA/SorII, ASor and QGr baselines.

#include <gtest/gtest.h>

#include "run_streaming.h"

#include "baselines/adaptive_sorted_neighbourhood.h"
#include "baselines/blocking_key.h"
#include "baselines/qgram_indexing.h"
#include "baselines/sorted_neighbourhood.h"
#include "baselines/standard_blocking.h"

namespace sablock::baselines {
namespace {

using core::BlockCollection;
using data::Dataset;
using data::Schema;

Dataset NameDataset() {
  Dataset d{Schema({"first", "last"})};
  d.Add({{"qing", "wang"}}, 0);
  d.Add({{"qing", "wang"}}, 0);
  d.Add({{"wang", "qing"}}, 0);   // swapped order, same person
  d.Add({{"peter", "miller"}}, 1);
  d.Add({{"petra", "miller"}}, 2);
  d.Add({{"zoe", "adams"}}, 3);
  return d;
}

TEST(BlockingKeyTest, ExactKeyConcatenatesNormalizedValues) {
  Dataset d = NameDataset();
  BlockingKeyDef def = ExactKey({"first", "last"});
  EXPECT_EQ(KeyBuilder(d, def).Key(0), "qingwang");
  EXPECT_EQ(KeyBuilder(d, def).Key(2), "wangqing");
}

TEST(BlockingKeyTest, MissingValuesContributeNothing) {
  Dataset d{Schema({"a", "b"})};
  d.Add({{"", "x"}});
  BlockingKeyDef def = ExactKey({"a", "b"});
  EXPECT_EQ(KeyBuilder(d, def).Key(0), "x");
}

TEST(BlockingKeyTest, PrefixAndEncodings) {
  Dataset d{Schema({"name"})};
  d.Add({{"Christopher Smith"}});
  BlockingKeyDef prefix{{{"name", KeyComponent::Encoding::kPrefix, 5}}};
  EXPECT_EQ(KeyBuilder(d, prefix).Key(0), "chris");
  BlockingKeyDef soundex{{{"name", KeyComponent::Encoding::kSoundex, 0}}};
  // The Soundex code of "christopher".
  EXPECT_EQ(KeyBuilder(d, soundex).Key(0), "C623");
  BlockingKeyDef first_word{
      {{"name", KeyComponent::Encoding::kFirstWord, 0}}};
  EXPECT_EQ(KeyBuilder(d, first_word).Key(0), "christopher");
  BlockingKeyDef nysiis{{{"name", KeyComponent::Encoding::kNysiis, 0}}};
  EXPECT_FALSE(KeyBuilder(d, nysiis).Key(0).empty());
}

TEST(StandardBlockingTest, GroupsByExactKey) {
  Dataset d = NameDataset();
  StandardBlocking tblo(ExactKey({"first", "last"}));
  BlockCollection blocks = RunStreaming(tblo, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  // The classic limitation the paper motivates: swapped names never share
  // a block under TBlo.
  EXPECT_FALSE(blocks.InSameBlock(0, 2));
  EXPECT_FALSE(blocks.InSameBlock(3, 4));
  EXPECT_EQ(tblo.name(), "TBlo");
}

TEST(StandardBlockingTest, EmptyKeysAreNotBlocked) {
  Dataset d{Schema({"a"})};
  d.Add({{""}});
  d.Add({{""}});
  StandardBlocking tblo(ExactKey({"a"}));
  EXPECT_EQ(RunStreaming(tblo, d).NumBlocks(), 0u);
}

TEST(SortedNeighbourhoodArrayTest, WindowCoversNeighbours) {
  Dataset d = NameDataset();
  SortedNeighbourhoodArray sna(ExactKey({"first", "last"}), 2);
  BlockCollection blocks = RunStreaming(sna, d);
  // "petermiller" and "petramiller" sort adjacently.
  EXPECT_TRUE(blocks.InSameBlock(3, 4));
  // Every block is exactly the window size.
  for (const auto& b : blocks.blocks()) EXPECT_EQ(b.size(), 2u);
  // n - w + 1 windows.
  EXPECT_EQ(blocks.NumBlocks(), d.size() - 2 + 1);
}

TEST(SortedNeighbourhoodArrayTest, WindowLargerThanDataset) {
  Dataset d{Schema({"a"})};
  d.Add({{"x"}});
  d.Add({{"y"}});
  SortedNeighbourhoodArray sna(ExactKey({"a"}), 10);
  BlockCollection blocks = RunStreaming(sna, d);
  EXPECT_EQ(blocks.NumBlocks(), 1u);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
}

TEST(SortedNeighbourhoodInvertedIndexTest, EqualKeysAlwaysCoBlocked) {
  Dataset d = NameDataset();
  // Window 1 over unique keys: only records sharing a key are co-blocked.
  SortedNeighbourhoodInvertedIndex sni(ExactKey({"first", "last"}), 1);
  BlockCollection blocks = RunStreaming(sni, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_FALSE(blocks.InSameBlock(3, 4));
  // Window 2 joins adjacent unique keys.
  SortedNeighbourhoodInvertedIndex sni2(ExactKey({"first", "last"}), 2);
  EXPECT_TRUE(RunStreaming(sni2, d).InSameBlock(3, 4));
}

TEST(MultiPassSortedNeighbourhoodTest, SecondKeyRecoversLeadingFieldError) {
  // The classic multi-pass win: an error in the *leading* sort field
  // ("catherine" vs "katherine") throws the records far apart in pass 1
  // (first+last) but pass 2 (last+first) sorts them adjacently.
  Dataset d{Schema({"first", "last"})};
  d.Add({{"catherine", "zimmer"}}, 0);
  d.Add({{"katherine", "zimmer"}}, 0);
  d.Add({{"daniel", "fox"}}, 1);
  d.Add({{"emily", "gray"}}, 2);
  d.Add({{"henry", "lee"}}, 3);

  SortedNeighbourhoodArray single(ExactKey({"first", "last"}), 2);
  core::BlockCollection single_blocks = RunStreaming(single, d);
  EXPECT_FALSE(single_blocks.InSameBlock(0, 1));

  MultiPassSortedNeighbourhood multi(
      {ExactKey({"first", "last"}), ExactKey({"last", "first"})}, 2);
  core::BlockCollection blocks = RunStreaming(multi, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
}

TEST(MultiPassSortedNeighbourhoodTest, BlocksAreDisjointComponents) {
  Dataset d = NameDataset();
  MultiPassSortedNeighbourhood multi(
      {ExactKey({"first", "last"}), ExactKey({"last", "first"})}, 2);
  core::BlockCollection blocks = RunStreaming(multi, d);
  std::vector<int> seen(d.size(), 0);
  for (const auto& b : blocks.blocks()) {
    for (auto id : b) ++seen[id];
  }
  for (int count : seen) EXPECT_LE(count, 1);
}

TEST(MultiPassSortedNeighbourhoodTest, NameEncodesParameters) {
  MultiPassSortedNeighbourhood multi({ExactKey({"a"})}, 4);
  EXPECT_EQ(multi.name(), "SorMP(passes=1,w=4)");
}

TEST(AdaptiveSortedNeighbourhoodTest, SplitsAtDissimilarBoundary) {
  Dataset d = NameDataset();
  AdaptiveSortedNeighbourhood asor(ExactKey({"first", "last"}),
                                   "jaro_winkler", 0.8);
  BlockCollection blocks = RunStreaming(asor, d);
  // petermiller ~ petramiller (high JW) stay together...
  EXPECT_TRUE(blocks.InSameBlock(3, 4));
  // ...but unrelated names split into different runs.
  EXPECT_FALSE(blocks.InSameBlock(5, 0));
}

TEST(AdaptiveSortedNeighbourhoodTest, MaxBlockSizeCapsRuns) {
  Dataset d{Schema({"k"})};
  for (int i = 0; i < 10; ++i) d.Add({{"samekey"}});
  AdaptiveSortedNeighbourhood asor(ExactKey({"k"}), "edit", 0.9,
                                   /*max_block_size=*/4);
  BlockCollection blocks = RunStreaming(asor, d);
  for (const auto& b : blocks.blocks()) EXPECT_LE(b.size(), 4u);
}

TEST(AdaptiveSortedNeighbourhoodTest, NameEncodesParameters) {
  AdaptiveSortedNeighbourhood asor(ExactKey({"a"}), "bigram", 0.9);
  EXPECT_EQ(asor.name(), "ASor(bigram,0.90)");
}

TEST(QGramIndexingTest, ToleratesSmallTypos) {
  Dataset d{Schema({"name"})};
  d.Add({{"catherine"}}, 0);
  d.Add({{"catherine"}}, 0);
  d.Add({{"catherihe"}}, 0);  // one substituted character (two bigrams)
  d.Add({{"zzzzzzz"}}, 1);
  QGramIndexing qgr(ExactKey({"name"}), 2, 0.7);
  BlockCollection blocks = RunStreaming(qgr, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_TRUE(blocks.InSameBlock(0, 2));
  EXPECT_FALSE(blocks.InSameBlock(0, 3));
}

TEST(QGramIndexingTest, ThresholdOneMeansExactGramList) {
  Dataset d{Schema({"name"})};
  d.Add({{"abc"}}, 0);
  d.Add({{"abc"}}, 0);
  d.Add({{"abd"}}, 1);
  QGramIndexing qgr(ExactKey({"name"}), 2, 1.0);
  BlockCollection blocks = RunStreaming(qgr, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_FALSE(blocks.InSameBlock(0, 2));
}

TEST(QGramIndexingTest, KeyCapBoundsWork) {
  Dataset d{Schema({"name"})};
  // Long BKVs would explode combinatorially without the cap.
  d.Add({{"a very long blocking key value with many grams"}}, 0);
  d.Add({{"a very long blocking key value with many grams"}}, 0);
  QGramIndexing qgr(ExactKey({"name"}), 2, 0.8, /*max_keys_per_record=*/16);
  BlockCollection blocks = RunStreaming(qgr, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
}

}  // namespace
}  // namespace sablock::baselines
