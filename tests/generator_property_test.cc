// Parameterized property sweeps over the dataset generators: invariants
// must hold across sizes, seeds and noise configurations.

#include <gtest/gtest.h>

#include <string_view>
#include <tuple>
#include <unordered_map>

#include "data/cora_generator.h"
#include "data/voter_generator.h"

namespace sablock::data {
namespace {

class CoraSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(CoraSweep, StructuralInvariants) {
  auto [entities, records, seed] = GetParam();
  CoraGeneratorConfig config;
  config.num_entities = entities;
  config.num_records = records;
  config.seed = seed;
  Dataset d = GenerateCoraLike(config);

  ASSERT_EQ(d.size(), records);
  std::unordered_map<EntityId, size_t> cluster_sizes;
  for (RecordId id = 0; id < d.size(); ++id) {
    // Entities labelled 0..entities-1, titles non-empty, arity correct.
    EXPECT_LT(d.entity(id), entities);
    EXPECT_FALSE(d.Value(id, "title").empty());
    EXPECT_EQ(d.Values(id).size(), d.schema().size());
    ++cluster_sizes[d.entity(id)];
  }
  // Every entity has at least one record.
  EXPECT_EQ(cluster_sizes.size(), entities);
  // True-match pair count is consistent with cluster sizes.
  uint64_t expected_pairs = 0;
  for (const auto& [e, n] : cluster_sizes) {
    expected_pairs += static_cast<uint64_t>(n) * (n - 1) / 2;
  }
  EXPECT_EQ(d.CountTrueMatchPairs(), expected_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CoraSweep,
    ::testing::Values(std::make_tuple(5u, 30u, 1u),
                      std::make_tuple(20u, 100u, 2u),
                      std::make_tuple(50u, 400u, 3u),
                      std::make_tuple(100u, 100u, 4u),  // all singletons
                      std::make_tuple(1u, 40u, 5u)));   // one entity

class VoterSweep
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint64_t>> {
};

TEST_P(VoterSweep, StructuralAndNoiseInvariants) {
  auto [records, uncertain, seed] = GetParam();
  VoterGeneratorConfig config;
  config.num_records = records;
  config.gender_uncertain_prob = uncertain;
  config.race_uncertain_prob = uncertain;
  config.seed = seed;
  Dataset d = GenerateVoterLike(config);

  ASSERT_EQ(d.size(), records);
  size_t uncertain_gender = 0;
  for (RecordId id = 0; id < d.size(); ++id) {
    std::string_view g = d.Value(id, "gender");
    std::string_view r = d.Value(id, "race");
    EXPECT_TRUE(g == "m" || g == "f" || g == "u") << g;
    EXPECT_TRUE(r == "w" || r == "b" || r == "a" || r == "i" || r == "o" ||
                r == "h" || r == "u")
        << r;
    EXPECT_FALSE(d.Value(id, "first_name").empty());
    EXPECT_FALSE(d.Value(id, "last_name").empty());
    if (g == "u") ++uncertain_gender;
  }
  // The uncertainty rate should be within a loose band of the configured
  // probability (binomial concentration).
  double rate =
      static_cast<double>(uncertain_gender) / static_cast<double>(records);
  EXPECT_NEAR(rate, uncertain, 0.08);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VoterSweep,
    ::testing::Values(std::make_tuple(300u, 0.0, 1u),
                      std::make_tuple(1000u, 0.1, 2u),
                      std::make_tuple(1000u, 0.3, 3u),
                      std::make_tuple(2000u, 0.5, 4u)));

TEST(VoterNoiseKnobsTest, ZeroNoiseMakesExactDuplicates) {
  VoterGeneratorConfig config;
  config.num_records = 400;
  config.zero_edit_prob = 1.0;
  config.one_edit_prob = 0.0;
  config.nickname_prob = 0.0;
  config.surname_change_prob = 0.0;
  config.gender_uncertain_prob = 0.0;
  config.race_uncertain_prob = 0.0;
  config.semantic_flip_prob = 0.0;
  config.seed = 9;
  Dataset d = GenerateVoterLike(config);

  // Any two records of the same entity differ at most by a dropped middle
  // initial in the first name.
  std::unordered_map<EntityId, RecordId> first_seen;
  for (RecordId id = 0; id < d.size(); ++id) {
    auto [it, inserted] = first_seen.emplace(d.entity(id), id);
    if (inserted) continue;
    RecordId other = it->second;
    EXPECT_EQ(d.Value(id, "last_name"), d.Value(other, "last_name"));
    EXPECT_EQ(d.Value(id, "gender"), d.Value(other, "gender"));
    EXPECT_EQ(d.Value(id, "race"), d.Value(other, "race"));
    std::string_view a = d.Value(id, "first_name");
    std::string_view b = d.Value(other, "first_name");
    std::string_view shorter = a.size() < b.size() ? a : b;
    std::string_view longer = a.size() < b.size() ? b : a;
    EXPECT_EQ(longer.substr(0, shorter.size()), shorter);
  }
}

TEST(CoraNoiseKnobsTest, NoMissingVenueMeansNoPattern8ForTypedRecords) {
  // With venue dropping disabled, ambiguous records can only come from
  // books (whose venue lives in `publisher`, untested by Table 1).
  CoraGeneratorConfig config;
  config.num_entities = 30;
  config.num_records = 200;
  config.missing_venue_prob = 0.0;
  config.wrong_attr_prob = 0.0;
  config.extra_attr_prob = 0.0;
  config.seed = 10;
  Dataset d = GenerateCoraLike(config);
  size_t ambiguous = 0;
  for (RecordId id = 0; id < d.size(); ++id) {
    bool has_any = !d.Value(id, "journal").empty() ||
                   !d.Value(id, "booktitle").empty() ||
                   !d.Value(id, "institution").empty();
    if (!has_any) ++ambiguous;
  }
  // Books are ~5% of entities; allow generous slack but far below the
  // default generator's ambiguous fraction (~25%).
  EXPECT_LT(ambiguous, d.size() / 5);
}

}  // namespace
}  // namespace sablock::data
