// Tests for common/string_util.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"

namespace sablock {
namespace {

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLower("AbC 12!"), "abc 12!");
  EXPECT_EQ(ToLower(""), "");
}

TEST(ToUpperTest, Basic) {
  EXPECT_EQ(ToUpper("aBc"), "ABC");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("    "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(SplitTest, KeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparator) {
  std::vector<std::string> parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitWordsTest, DropsEmptyRuns) {
  std::vector<std::string> words = SplitWords("  foo   bar\tbaz\n");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "foo");
  EXPECT_EQ(words[1], "bar");
  EXPECT_EQ(words[2], "baz");
}

TEST(SplitWordsTest, EmptyInput) {
  EXPECT_TRUE(SplitWords("").empty());
  EXPECT_TRUE(SplitWords("   ").empty());
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(NormalizeWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(NormalizeWhitespace("  a   b \t c "), "a b c");
}

TEST(NormalizeForMatchingTest, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(NormalizeForMatching("Fahlman, S., & Lebiere, C."),
            "fahlman s lebiere c");
  EXPECT_EQ(NormalizeForMatching("The Cascade-Correlation architecture"),
            "the cascade correlation architecture");
  EXPECT_EQ(NormalizeForMatching(""), "");
  EXPECT_EQ(NormalizeForMatching("!!!"), "");
}

TEST(NormalizeForMatchingTest, KeepsDigits) {
  EXPECT_EQ(NormalizeForMatching("TR-95 v2"), "tr 95 v2");
}

std::vector<std::string> MatchingTokens(std::string_view s,
                                        std::string* buffer) {
  std::vector<std::string> out;
  ForEachMatchingToken(s, buffer, [&out](std::string_view token) {
    out.emplace_back(token);
  });
  return out;
}

TEST(ForEachMatchingTokenTest, YieldsTheNormalizedWords) {
  std::string buffer;
  EXPECT_EQ(MatchingTokens("Fahlman, S., & Lebiere, C.", &buffer),
            (std::vector<std::string>{"fahlman", "s", "lebiere", "c"}));
  EXPECT_EQ(MatchingTokens("TR-95 v2", &buffer),
            (std::vector<std::string>{"tr", "95", "v2"}));
  EXPECT_TRUE(MatchingTokens("", &buffer).empty());
  EXPECT_TRUE(MatchingTokens(" !! \t", &buffer).empty());
}

/// Matching normalization spelled out with the C library's character
/// classes (the program runs in the "C" locale): alphanumerics lowercased,
/// every other byte a separator, separator runs collapsed.
std::string ReferenceNormalize(std::string_view s) {
  std::string mapped;
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    mapped.push_back(std::isalnum(u) ? static_cast<char>(std::tolower(u))
                                     : ' ');
  }
  return Join(SplitWords(mapped), " ");
}

TEST(ForEachMatchingTokenTest, EqualsSplitWordsOfNormalizeOnRandomBytes) {
  // Any byte may appear, weighted towards the classes the tokenizer
  // separates: letters of both cases, digits, whitespace, punctuation,
  // NUL and non-ASCII bytes. One buffer serves every string, as it does
  // for a service's rows.
  const std::string alphabet =
      std::string("aZq09 \t\n.,-_!") + '\0' + "\x80\xc3\xa9\xff";
  Rng rng(20261017);
  std::string buffer;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string s(rng.UniformIndex(40), '\0');
    for (char& c : s) {
      c = rng.UniformIndex(4) == 0
              ? static_cast<char>(rng.UniformIndex(256))
              : alphabet[rng.UniformIndex(alphabet.size())];
    }
    const std::string normalized = NormalizeForMatching(s);
    EXPECT_EQ(normalized, ReferenceNormalize(s)) << "trial " << trial;
    EXPECT_EQ(MatchingTokens(s, &buffer), SplitWords(normalized))
        << "trial " << trial;
  }
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_FALSE(StartsWith("xfoo", "foo"));
}

TEST(FormatDoubleTest, RoundsToDigits) {
  EXPECT_EQ(FormatDouble(0.12345, 2), "0.12");
  EXPECT_EQ(FormatDouble(0.999, 2), "1.00");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
}

}  // namespace
}  // namespace sablock
