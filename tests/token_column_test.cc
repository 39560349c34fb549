// Tests for features::TokenColumn, the one token interner of the
// FeatureStore, the candidate service and the token index: its id rule
// against a reference written from the rule's definition (on seeded rows
// and on the golden Cora corpus through FeatureStore::Tokens), the
// snapshot loader's entry point and its rejections, and views that
// survive a move.

#include "features/token_column.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "data/cora_generator.h"
#include "data/record.h"
#include "features/feature_store.h"
#include "gtest/gtest.h"
#include "reference_text.h"

namespace sablock::features {
namespace {

static_assert(!std::is_copy_constructible_v<TokenColumn>,
              "the vocabulary views the dictionary's keys");

/// The id rule from its definition: each row's sorted distinct tokens
/// are interned through one std::map, so a token seen before keeps its
/// id and the row's new tokens take the next ids in ascending string
/// order.
struct ReferenceColumn {
  std::map<std::string, TokenId> ids;
  std::vector<std::string> vocabulary;
  std::vector<std::vector<TokenId>> rows;

  void Append(const std::vector<std::string>& tokens) {
    const std::set<std::string> distinct(tokens.begin(), tokens.end());
    std::vector<TokenId> row;
    for (const std::string& token : distinct) {
      auto [it, fresh] =
          ids.try_emplace(token, static_cast<TokenId>(vocabulary.size()));
      if (fresh) vocabulary.push_back(token);
      row.push_back(it->second);
    }
    std::sort(row.begin(), row.end());
    rows.push_back(row);
  }
};

/// The tokens of SplitWords(NormalizeForMatching(v)) over all values.
std::vector<std::string> MatchingTokens(
    const std::vector<std::string>& values) {
  std::vector<std::string> tokens;
  for (const std::string& value : values) {
    for (std::string& word : SplitWords(NormalizeForMatching(value))) {
      tokens.push_back(std::move(word));
    }
  }
  return tokens;
}

void ExpectEqualsReference(const TokenColumn& column,
                           const ReferenceColumn& reference) {
  ASSERT_EQ(column.size(), reference.rows.size());
  ASSERT_EQ(column.token_limit(), reference.vocabulary.size());
  for (size_t row = 0; row < column.size(); ++row) {
    EXPECT_TRUE(std::ranges::equal(column.Row(row), reference.rows[row]))
        << "row " << row;
  }
  for (TokenId id = 0; id < column.token_limit(); ++id) {
    EXPECT_EQ(column.Token(id), reference.vocabulary[id]) << id;
  }
  EXPECT_TRUE(
      std::ranges::equal(column.vocabulary(), reference.vocabulary));
}

/// Seeded rows of one to three values drawn from a small pool, so rows
/// repeat tokens, reuse tokens of earlier rows and bring new ones in
/// every order; case, punctuation and empty values vary too.
std::vector<std::vector<std::string>> SeededRows(size_t n, uint64_t seed) {
  static const char* const kWords[] = {
      "zeta", "Alpha", "beta", "GAMMA", "delta", "x1", "42", "o'neil",
      "semi-naive", "Beta", "omega", "kappa", "mu", "nu", "r2d2", "é"};
  static const char* const kSeparators[] = {" ", ", ", "  ", "-", ";"};
  Rng rng(seed);
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> values(1 + rng.UniformIndex(3));
    for (std::string& value : values) {
      const size_t words = rng.UniformIndex(6);
      for (size_t w = 0; w < words; ++w) {
        if (w > 0) value += kSeparators[rng.UniformIndex(5)];
        value += kWords[rng.UniformIndex(std::size(kWords))];
      }
      // A token no earlier row can hold, now and then.
      if (rng.Bernoulli(0.2)) value += " fresh" + std::to_string(r);
    }
    rows.push_back(std::move(values));
  }
  return rows;
}

TEST(TokenColumnTest, IdRuleMatchesTheReferenceOnSeededRows) {
  for (uint64_t seed : {1, 2, 3}) {
    TokenColumn column;
    ReferenceColumn reference;
    for (const std::vector<std::string>& values : SeededRows(200, seed)) {
      const std::vector<std::string_view> views(values.begin(), values.end());
      column.Append(views);
      reference.Append(MatchingTokens(values));
    }
    ExpectEqualsReference(column, reference);
  }
}

TEST(TokenColumnTest, IdRuleMatchesTheReferenceOnTheGoldenCoraCorpus) {
  data::CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 400;
  config.seed = 42;
  const data::Dataset d = data::GenerateCoraLike(config);
  const std::vector<std::string> attrs = {"authors", "title"};
  ReferenceColumn reference;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    reference.Append(SplitWords(DefinedText(d, id, attrs)));
  }
  const TokenColumn& column = d.features().store().Tokens(attrs);
  ExpectEqualsReference(column, reference);

  // Appending the raw attribute values, as the token index does, interns
  // exactly what appending the normalized text column does.
  TokenColumn raw;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const std::vector<std::string_view> values = {d.Value(id, "authors"),
                                                  d.Value(id, "title")};
    raw.Append(values);
  }
  EXPECT_TRUE(
      std::ranges::equal(raw.rows().values(), column.rows().values()));
  EXPECT_TRUE(
      std::ranges::equal(raw.rows().offsets(), column.rows().offsets()));
  EXPECT_TRUE(std::ranges::equal(raw.vocabulary(), column.vocabulary()));
}

TEST(TokenColumnTest, LoadRebuildsTheColumnAndKeepsItsIdRule) {
  const std::vector<std::vector<std::string>> rows = SeededRows(60, 9);
  TokenColumn built;
  for (size_t r = 0; r + 1 < rows.size(); ++r) {
    const std::vector<std::string_view> views(rows[r].begin(), rows[r].end());
    built.Append(views);
  }
  const std::vector<std::string> vocabulary(built.vocabulary().begin(),
                                            built.vocabulary().end());
  std::vector<uint64_t> counts;
  for (size_t r = 0; r < built.size(); ++r) {
    counts.push_back(built.Row(r).size());
  }
  const std::vector<uint64_t> ids(built.rows().values().begin(),
                                  built.rows().values().end());
  TokenColumn loaded;
  Status s = TokenColumn::Load(vocabulary, counts, ids, &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(
      std::ranges::equal(loaded.rows().values(), built.rows().values()));
  EXPECT_TRUE(
      std::ranges::equal(loaded.rows().offsets(), built.rows().offsets()));
  EXPECT_TRUE(std::ranges::equal(loaded.vocabulary(), built.vocabulary()));

  // Both go on interning the same way.
  const std::vector<std::string_view> last(rows.back().begin(),
                                           rows.back().end());
  built.Append(last);
  loaded.Append(last);
  EXPECT_TRUE(
      std::ranges::equal(loaded.rows().values(), built.rows().values()));
  EXPECT_TRUE(std::ranges::equal(loaded.vocabulary(), built.vocabulary()));
}

TEST(TokenColumnTest, LoadRejectsCorruptSections) {
  const std::vector<std::string> vocabulary = {"ada", "grace", "london"};
  struct Case {
    const char* what;
    std::vector<std::string> vocabulary;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> ids;
    const char* error;
  };
  const Case cases[] = {
      {"repeated vocabulary string", {"ada", "grace", "ada"}, {2}, {0, 1},
       "repeats vocabulary string 'ada'"},
      {"ids out of order", vocabulary, {2, 1}, {1, 0, 2},
       "row 0 ids are not strictly ascending"},
      {"repeated id", vocabulary, {1, 2}, {0, 2, 2},
       "row 1 ids are not strictly ascending"},
      {"id out of range", vocabulary, {1}, {3}, "out of vocabulary range"},
      {"counts past the ids", vocabulary, {1, 3}, {0, 1, 2},
       "counts exceed its ids"},
      {"counts short of the ids", vocabulary, {1}, {0, 1},
       "counts do not cover its ids"},
  };
  for (const Case& c : cases) {
    TokenColumn column;
    Status s = TokenColumn::Load(c.vocabulary, c.counts, c.ids, &column);
    ASSERT_FALSE(s.ok()) << c.what;
    EXPECT_EQ(s.message().rfind("token column ", 0), 0u) << s.message();
    EXPECT_NE(s.message().find(c.error), std::string::npos) << s.message();
  }
}

TEST(TokenColumnTest, MovedColumnKeepsItsVocabulary) {
  // One token past the small-string buffer and one inside it.
  TokenColumn column;
  const std::vector<std::string_view> row = {
      "Supercalifragilisticexpialidocious", "short"};
  column.Append(row);
  TokenColumn moved = std::move(column);
  ASSERT_EQ(moved.token_limit(), 2u);
  EXPECT_EQ(moved.Token(0), "short");
  EXPECT_EQ(moved.Token(1), "supercalifragilisticexpialidocious");
  std::vector<TokenId> ids;
  EXPECT_EQ(moved.Lookup(row, &ids), 2u);
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1}));
}

}  // namespace
}  // namespace sablock::features
