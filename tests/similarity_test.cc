// Tests for the string similarity comparators used by the baselines
// (Section 6.3.4 parameter grids).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "text/similarity.h"

namespace sablock::text {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("correlation", "corelation"), 1);
}

TEST(EditSimilarityTest, Range) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(EditSimilarity("abcd", "abcx"), 0.75, 1e-12);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("martha", "martha"), 1.0);
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.766667, 1e-5);
  EXPECT_NEAR(JaroSimilarity("duane", "dwayne"), 0.822222, 1e-5);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.813333, 1e-5);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("same", "same"), 1.0);
}

TEST(JaroWinklerTest, PrefixBoostsScore) {
  // Same Jaro ingredients, but a shared prefix must raise Jaro-Winkler.
  double jaro = JaroSimilarity("prefixab", "prefixba");
  double jw = JaroWinklerSimilarity("prefixab", "prefixba");
  EXPECT_GT(jw, jaro);
}

TEST(QGramSimilarityTest, IdenticalAndDisjoint) {
  EXPECT_DOUBLE_EQ(QGramSimilarity("abc", "abc", 2), 1.0);
  EXPECT_DOUBLE_EQ(QGramSimilarity("", "", 2), 1.0);
  EXPECT_DOUBLE_EQ(QGramSimilarity("aaaa", "zzzz", 2), 0.0);
  double near = QGramSimilarity("wang", "wangg", 2);
  EXPECT_GT(near, 0.5);
  EXPECT_LT(near, 1.0);
}

TEST(BigramSimilarityTest, MatchesQ2) {
  EXPECT_DOUBLE_EQ(BigramSimilarity("hello", "hella"),
                   QGramSimilarity("hello", "hella", 2));
}

TEST(LcsSimilarityTest, FirstFragmentIsTheLongestCommonSubstring) {
  // The longest common substring is removed first, so a min_len one past
  // its length scores 0.
  EXPECT_DOUBLE_EQ(LcsSimilarity("", "abc", 1), 0.0);
  EXPECT_DOUBLE_EQ(LcsSimilarity("abcdef", "zabcy", 3), 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(LcsSimilarity("abcdef", "zabcy", 4), 0.0);
  EXPECT_DOUBLE_EQ(LcsSimilarity("xy", "yx", 1), 1.0);
  EXPECT_DOUBLE_EQ(LcsSimilarity("xy", "yx", 2), 0.0);
}

TEST(LcsSimilarityTest, RepeatedExtraction) {
  // "abcd" + "efgh" common in both, split differently.
  double sim = LcsSimilarity("abcdXefgh", "abcdYefgh");
  EXPECT_NEAR(sim, 8.0 / 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(LcsSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LcsSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LcsSimilarity("ab", "xy"), 0.0);
}

TEST(LcsSimilarityTest, MinLengthFiltersShortFragments) {
  // With min_len=4 the 3-char fragments no longer count.
  EXPECT_DOUBLE_EQ(LcsSimilarity("abcXdef", "abcYdef", 4), 0.0);
  EXPECT_GT(LcsSimilarity("abcXdef", "abcYdef", 3), 0.0);
}

TEST(TokenJaccardTest, SetSemantics) {
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("a b c", "c b a"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("a a b", "a b"), 1.0);
  EXPECT_NEAR(TokenJaccardSimilarity("a b", "b c"), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("", ""), 1.0);
}

TEST(ExactSimilarityTest, Basic) {
  EXPECT_DOUBLE_EQ(ExactSimilarity("x", "x"), 1.0);
  EXPECT_DOUBLE_EQ(ExactSimilarity("x", "y"), 0.0);
}

TEST(SimilarityByNameTest, ResolvesAllGridComparators) {
  for (const char* name :
       {"jaro_winkler", "bigram", "edit", "lcs", "jaccard_token", "exact"}) {
    StringSimilarityFn fn = SimilarityByName(name);
    ASSERT_TRUE(fn != nullptr) << name;
    EXPECT_DOUBLE_EQ(fn("same", "same"), 1.0) << name;
  }
}

// Property sweep: every comparator is symmetric, bounded to [0, 1], and
// scores identity as 1.
class ComparatorProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(ComparatorProperties, SymmetricBoundedReflexive) {
  StringSimilarityFn fn = SimilarityByName(GetParam());
  const std::vector<std::string> samples = {
      "",        "a",         "wang qing",      "qing wang",
      "cascade", "correlat",  "correlation",    "the cascade correlation",
      "smith",   "smyth",     "technical rep",  "1995",
  };
  for (const std::string& a : samples) {
    EXPECT_DOUBLE_EQ(fn(a, a), 1.0) << GetParam() << " on '" << a << "'";
    for (const std::string& b : samples) {
      double ab = fn(a, b);
      double ba = fn(b, a);
      EXPECT_NEAR(ab, ba, 1e-12) << GetParam();
      EXPECT_GE(ab, 0.0) << GetParam();
      EXPECT_LE(ab, 1.0) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllComparators, ComparatorProperties,
                         ::testing::Values("jaro_winkler", "bigram", "edit",
                                           "lcs", "jaccard_token", "exact"));

}  // namespace
}  // namespace sablock::text
