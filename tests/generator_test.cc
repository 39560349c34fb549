// Tests for the Cora-like and Voter-like dataset generators (the data
// substitution of DESIGN.md §2).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>

#include "data/cora_generator.h"
#include "data/voter_generator.h"

namespace sablock::data {
namespace {

CoraGeneratorConfig SmallCora() {
  CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 300;
  config.seed = 11;
  return config;
}

VoterGeneratorConfig SmallVoter() {
  VoterGeneratorConfig config;
  config.num_records = 500;
  config.seed = 12;
  return config;
}

TEST(CoraGeneratorTest, ProducesRequestedCounts) {
  Dataset d = GenerateCoraLike(SmallCora());
  EXPECT_EQ(d.size(), 300u);
  std::set<EntityId> entities;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    entities.insert(d.entity(id));
  }
  EXPECT_EQ(entities.size(), 40u);
}

TEST(CoraGeneratorTest, SchemaMatchesDocumentation) {
  Dataset d = GenerateCoraLike(SmallCora());
  for (const char* attr : {"title", "authors", "journal", "booktitle",
                           "institution", "publisher", "year"}) {
    EXPECT_GE(d.schema().IndexOf(attr), 0) << attr;
  }
}

TEST(CoraGeneratorTest, DeterministicForSeed) {
  Dataset a = GenerateCoraLike(SmallCora());
  Dataset b = GenerateCoraLike(SmallCora());
  ASSERT_EQ(a.size(), b.size());
  for (data::RecordId id = 0; id < a.size(); ++id) {
    EXPECT_TRUE(std::ranges::equal(a.Values(id), b.Values(id))) << id;
    EXPECT_EQ(a.entity(id), b.entity(id));
  }
}

TEST(CoraGeneratorTest, DifferentSeedsDiffer) {
  CoraGeneratorConfig c1 = SmallCora();
  CoraGeneratorConfig c2 = SmallCora();
  c2.seed = 999;
  Dataset a = GenerateCoraLike(c1);
  Dataset b = GenerateCoraLike(c2);
  bool any_diff = false;
  for (data::RecordId id = 0; id < a.size() && !any_diff; ++id) {
    any_diff = !std::ranges::equal(a.Values(id), b.Values(id));
  }
  EXPECT_TRUE(any_diff);
}

TEST(CoraGeneratorTest, TitlesAreNonEmpty) {
  Dataset d = GenerateCoraLike(SmallCora());
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_FALSE(d.Value(id, "title").empty());
  }
}

TEST(CoraGeneratorTest, MissingValuePatternsAreDiverse) {
  // The Table 1 semantic function needs a mix of missing-value patterns.
  Dataset d = GenerateCoraLike(SmallCora());
  std::set<int> patterns;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    int p = (d.Value(id, "journal").empty() ? 0 : 4) |
            (d.Value(id, "booktitle").empty() ? 0 : 2) |
            (d.Value(id, "institution").empty() ? 0 : 1);
    patterns.insert(p);
  }
  EXPECT_GE(patterns.size(), 3u);
  EXPECT_TRUE(patterns.count(0));  // some fully ambiguous records
}

TEST(CoraGeneratorTest, ClusterSizesAreSkewed) {
  Dataset d = GenerateCoraLike(SmallCora());
  std::unordered_map<EntityId, size_t> sizes;
  for (data::RecordId id = 0; id < d.size(); ++id) ++sizes[d.entity(id)];
  size_t max_size = 0;
  for (const auto& [e, n] : sizes) max_size = std::max(max_size, n);
  // 300 records over 40 entities, skewed: some entity should be "popular".
  EXPECT_GE(max_size, 15u);
}

TEST(CoraGeneratorTest, DuplicatesAreScattered) {
  Dataset d = GenerateCoraLike(SmallCora());
  // The first half of records should not all belong to distinct entities
  // (shuffling spread clusters); verify a duplicate exists across halves.
  bool cross_half_match = false;
  for (data::RecordId i = 0; i < d.size() / 2 && !cross_half_match; ++i) {
    for (data::RecordId j = d.size() / 2; j < d.size(); ++j) {
      if (d.IsMatch(i, j)) {
        cross_half_match = true;
        break;
      }
    }
  }
  EXPECT_TRUE(cross_half_match);
}

TEST(CoraGeneratorTest, RejectsInvalidConfig) {
  CoraGeneratorConfig config;
  config.num_entities = 10;
  config.num_records = 5;  // fewer records than entities
  EXPECT_DEATH(GenerateCoraLike(config), "CHECK");
}

TEST(VoterGeneratorTest, ProducesRequestedCount) {
  Dataset d = GenerateVoterLike(SmallVoter());
  EXPECT_EQ(d.size(), 500u);
}

TEST(VoterGeneratorTest, SchemaMatchesDocumentation) {
  Dataset d = GenerateVoterLike(SmallVoter());
  for (const char* attr : {"first_name", "last_name", "gender", "race",
                           "city", "street", "age"}) {
    EXPECT_GE(d.schema().IndexOf(attr), 0) << attr;
  }
}

TEST(VoterGeneratorTest, GenderValuesAreValid) {
  Dataset d = GenerateVoterLike(SmallVoter());
  size_t uncertain = 0;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    std::string_view g = d.Value(id, "gender");
    EXPECT_TRUE(g == "m" || g == "f" || g == "u") << g;
    if (g == "u") ++uncertain;
  }
  // ~12% uncertainty configured; expect a healthy band.
  EXPECT_GT(uncertain, 20u);
  EXPECT_LT(uncertain, 150u);
}

TEST(VoterGeneratorTest, HasDuplicatesAndSingletons) {
  Dataset d = GenerateVoterLike(SmallVoter());
  std::unordered_map<EntityId, size_t> sizes;
  for (data::RecordId id = 0; id < d.size(); ++id) ++sizes[d.entity(id)];
  size_t singletons = 0;
  size_t clusters = 0;
  for (const auto& [e, n] : sizes) {
    if (n == 1) ++singletons;
    if (n >= 2) ++clusters;
    EXPECT_LE(n, 5u);
  }
  EXPECT_GT(singletons, 0u);
  EXPECT_GT(clusters, 0u);
  EXPECT_GT(d.CountTrueMatchPairs(), 0u);
}

TEST(VoterGeneratorTest, DeterministicForSeed) {
  Dataset a = GenerateVoterLike(SmallVoter());
  Dataset b = GenerateVoterLike(SmallVoter());
  ASSERT_EQ(a.size(), b.size());
  for (data::RecordId id = 0; id < a.size(); ++id) {
    EXPECT_TRUE(std::ranges::equal(a.Values(id), b.Values(id))) << id;
  }
}

TEST(VoterGeneratorTest, ScalesToLargerSizes) {
  VoterGeneratorConfig config = SmallVoter();
  config.num_records = 20000;
  Dataset d = GenerateVoterLike(config);
  EXPECT_EQ(d.size(), 20000u);
}

}  // namespace
}  // namespace sablock::data
