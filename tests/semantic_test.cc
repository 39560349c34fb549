// Tests for semantic functions: the Table 1 missing-value patterns
// (bibliographic domain), the voter gender/race rules, fallback handling
// for taxonomy variants, and the Specificity property of Definition 4.2.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/domains.h"
#include "core/semantic.h"
#include "data/cora_generator.h"
#include "data/voter_generator.h"

namespace sablock::core {
namespace {

using data::Dataset;
using data::Record;
using data::Schema;

// Builds a bibliographic record with the given presence pattern.
Dataset BibDataset() {
  Dataset d{Schema({"title", "authors", "journal", "booktitle",
                    "institution", "publisher", "year"})};
  auto add = [&d](const char* journal, const char* booktitle,
                  const char* institution) {
    Record r;
    r.values = {"a title", "an author", journal, booktitle, institution,
                "", "1995"};
    d.Add(std::move(r));
  };
  add("J", "B", "I");  // pattern 1
  add("J", "B", "");   // pattern 2
  add("J", "", "I");   // pattern 3
  add("J", "", "");    // pattern 4
  add("", "B", "I");   // pattern 5
  add("", "B", "");    // pattern 6
  add("", "", "I");    // pattern 7
  add("", "", "");     // pattern 8
  return d;
}

std::vector<std::string> Names(const Taxonomy& t,
                               const std::vector<ConceptId>& ids) {
  std::vector<std::string> names;
  for (ConceptId c : ids) names.push_back(t.name(c));
  std::sort(names.begin(), names.end());
  return names;
}

TEST(BibliographicDomainTest, Table1PatternsMapToConcepts) {
  Domain domain = MakeBibliographicDomain();
  Dataset d = BibDataset();
  const Taxonomy& t = domain.taxonomy();

  using V = std::vector<std::string>;
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 0)),
            (V{"C3", "C4", "C6"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 1)), (V{"C3", "C4"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 2)), (V{"C3", "C6"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 3)), (V{"C3"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 4)),
            (V{"C4", "C7", "C8"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 5)), (V{"C4"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 6)), (V{"C7", "C8"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 7)), (V{"C1"}));
}

TEST(BibliographicDomainTest, PatternsAreCompleteOverAllRecords) {
  // Every record matches exactly one pattern (the 8 patterns partition the
  // presence combinations), so no interpretation is empty.
  Domain domain = MakeBibliographicDomain();
  Dataset d = BibDataset();
  for (data::RecordId id = 0; id < d.size(); ++id) {
    EXPECT_FALSE(domain.semantics->Interpret(d, id).empty()) << id;
  }
}

TEST(BibliographicDomainTest, NoJournalVariantFallsBackToParent) {
  // In t_(bib,3) the Journal concept C3 is missing; pattern-4 records fall
  // back to its parent C2 (Section 6.3.3 behaviour).
  Domain domain = MakeBibliographicDomain(BibVariant::kNoJournal);
  Dataset d = BibDataset();
  const Taxonomy& t = domain.taxonomy();
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 3)),
            (std::vector<std::string>{"C2"}));
  // Pattern 2 {C3, C4}: C3 -> C2 which subsumes C4; Specificity keeps C4.
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 1)),
            (std::vector<std::string>{"C4"}));
}

TEST(BibliographicDomainTest, NoReviewLevelVariantResolvesC6) {
  // In t_(bib,1) C6 is missing; pattern-1 records {C3, C4, C6} resolve C6
  // to its parent C1, which subsumes C3/C4 — Specificity keeps {C3, C4}.
  Domain domain = MakeBibliographicDomain(BibVariant::kNoReviewLevel);
  Dataset d = BibDataset();
  const Taxonomy& t = domain.taxonomy();
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 0)),
            (std::vector<std::string>{"C3", "C4"}));
}

TEST(RuleSemanticFunctionTest, SpecificityPrunesAncestors) {
  Taxonomy t = MakeBibliographicTaxonomy();
  std::vector<SemanticRule> rules = {
      {{}, {"C0", "C3"}},  // deliberately includes an ancestor
  };
  RuleSemanticFunction fn(std::move(t), std::move(rules));
  Dataset d{Schema({"x"})};
  d.Add({{"v"}});
  std::vector<ConceptId> zeta = fn.Interpret(d, 0);
  ASSERT_EQ(zeta.size(), 1u);
  EXPECT_EQ(fn.taxonomy().name(zeta[0]), "C3");
}

TEST(RuleSemanticFunctionTest, FirstMatchWins) {
  Taxonomy t = MakeBibliographicTaxonomy();
  std::vector<SemanticRule> rules = {
      {{AttributePredicate::Equals("x", "a")}, {"C3"}},
      {{}, {"C9"}},  // catch-all
  };
  RuleSemanticFunction fn(std::move(t), std::move(rules));
  Dataset d{Schema({"x"})};
  d.Add({{"a"}});
  d.Add({{"b"}});
  EXPECT_EQ(fn.taxonomy().name(fn.Interpret(d, 0)[0]), "C3");
  EXPECT_EQ(fn.taxonomy().name(fn.Interpret(d, 1)[0]), "C9");
}

TEST(RuleSemanticFunctionTest, AccumulateMatchesUnionsConcepts) {
  Taxonomy t = MakeBibliographicTaxonomy();
  std::vector<SemanticRule> rules = {
      {{AttributePredicate::Present("x")}, {"C3"}},
      {{AttributePredicate::Present("y")}, {"C9"}},
  };
  RuleSemanticFunction fn(std::move(t), std::move(rules), {},
                          /*accumulate_matches=*/true);
  Dataset d{Schema({"x", "y"})};
  d.Add({{"v", "w"}});
  std::vector<ConceptId> zeta = fn.Interpret(d, 0);
  EXPECT_EQ(zeta.size(), 2u);
}

TEST(RuleSemanticFunctionTest, NoMatchingRuleYieldsEmpty) {
  Taxonomy t = MakeBibliographicTaxonomy();
  std::vector<SemanticRule> rules = {
      {{AttributePredicate::Equals("x", "never")}, {"C3"}},
  };
  RuleSemanticFunction fn(std::move(t), std::move(rules));
  Dataset d{Schema({"x"})};
  d.Add({{"other"}});
  EXPECT_TRUE(fn.Interpret(d, 0).empty());
}

TEST(RuleSemanticFunctionTest, UnknownConceptWithoutFallbackIsDropped) {
  Taxonomy t = MakeBibliographicTaxonomyNoBook();
  std::vector<SemanticRule> rules = {
      {{}, {"C5", "C4"}},  // C5 absent, no fallback map
  };
  RuleSemanticFunction fn(std::move(t), std::move(rules));
  Dataset d{Schema({"x"})};
  d.Add({{"v"}});
  std::vector<ConceptId> zeta = fn.Interpret(d, 0);
  ASSERT_EQ(zeta.size(), 1u);
  EXPECT_EQ(fn.taxonomy().name(zeta[0]), "C4");
}

Dataset VoterDataset() {
  Dataset d{Schema({"first_name", "last_name", "gender", "race", "city",
                    "street", "age"})};
  auto add = [&d](const char* gender, const char* race) {
    Record r;
    r.values = {"ann", "li", gender, race, "cary", "1 oak st", "40"};
    d.Add(std::move(r));
  };
  add("f", "w");  // 0: fully known
  add("m", "u");  // 1: race uncertain
  add("u", "b");  // 2: gender uncertain
  add("u", "u");  // 3: fully uncertain
  add("f", "");   // 4: race missing
  return d;
}

TEST(VoterDomainTest, TwelveLeafConcepts) {
  Domain domain = MakeVoterDomain();
  EXPECT_EQ(domain.taxonomy().TotalLeaves(), 12u);
  EXPECT_EQ(domain.blocking_attributes,
            (std::vector<std::string>{"first_name", "last_name"}));
}

TEST(VoterDomainTest, InterpretationsByUncertainty) {
  Domain domain = MakeVoterDomain();
  Dataset d = VoterDataset();
  const Taxonomy& t = domain.taxonomy();

  using V = std::vector<std::string>;
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 0)), (V{"female_w"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 1)), (V{"male"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 2)),
            (V{"female_b", "male_b"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 3)), (V{"person"}));
  EXPECT_EQ(Names(t, domain.semantics->Interpret(d, 4)), (V{"female"}));
}

TEST(VoterDomainTest, SemanticSimilarityReflectsAgreement) {
  Domain domain = MakeVoterDomain();
  Dataset d = VoterDataset();
  const Taxonomy& t = domain.taxonomy();
  auto z = [&](data::RecordId id) {
    return domain.semantics->Interpret(d, id);
  };
  // female_w vs male (disjoint branches): 0.
  EXPECT_DOUBLE_EQ(t.RecordSimilarity(z(0), z(1)), 0.0);
  // female_w vs female: contained -> positive.
  EXPECT_GT(t.RecordSimilarity(z(0), z(4)), 0.0);
  // fully uncertain (root) relates to everything.
  EXPECT_GT(t.RecordSimilarity(z(0), z(3)), 0.0);
  EXPECT_GT(t.RecordSimilarity(z(1), z(3)), 0.0);
}

TEST(LambdaSemanticFunctionTest, WrapsCallableAndPrunes) {
  Taxonomy t = MakeBibliographicTaxonomy();
  ConceptId c0 = t.Require("C0");
  ConceptId c3 = t.Require("C3");
  LambdaSemanticFunction fn(
      t, [c0, c3](const Schema&, std::span<const std::string_view>) {
        return std::vector<ConceptId>{c0, c3};
      });
  Dataset d{Schema({"x"})};
  d.Add({{"v"}});
  std::vector<ConceptId> zeta = fn.Interpret(d, 0);
  ASSERT_EQ(zeta.size(), 1u);
  EXPECT_EQ(zeta[0], c3);
}

/// Checks, for every record of `d`, that interpreting a copy of its values
/// (as an index interprets a probe) gives the dataset form's ζ, also under
/// a schema listing the attributes in reverse order. Returns how many
/// records had a non-empty interpretation.
size_t ExpectValuesFormAgrees(const SemanticFunction& fn, const Dataset& d) {
  const std::vector<std::vector<ConceptId>> all = fn.InterpretAll(d);
  EXPECT_EQ(all.size(), d.size());
  std::vector<std::string> reversed_names = d.schema().names();
  std::reverse(reversed_names.begin(), reversed_names.end());
  const Schema reversed(reversed_names);
  size_t interpreted = 0;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    const Record copy = d.record(id);
    std::vector<std::string_view> values(copy.values.begin(),
                                         copy.values.end());
    EXPECT_EQ(fn.Interpret(d, id), all[id]) << id;
    EXPECT_EQ(fn.Interpret(d.schema(), values), all[id]) << id;
    std::reverse(values.begin(), values.end());
    EXPECT_EQ(fn.Interpret(reversed, values), all[id]) << id;
    if (!all[id].empty()) ++interpreted;
  }
  return interpreted;
}

TEST(SemanticFunctionTest, ValuesFormAgreesWithDatasetForm) {
  data::CoraGeneratorConfig cora;
  cora.num_records = 400;
  cora.seed = 11;
  EXPECT_GT(ExpectValuesFormAgrees(*MakeBibliographicDomain().semantics,
                                   data::GenerateCoraLike(cora)),
            0u);
  data::VoterGeneratorConfig voter;
  voter.num_records = 400;
  voter.seed = 11;
  EXPECT_GT(ExpectValuesFormAgrees(*MakeVoterDomain().semantics,
                                   data::GenerateVoterLike(voter)),
            0u);
}

TEST(SemanticFunctionTest, InterpretAllCoversDataset) {
  Domain domain = MakeBibliographicDomain();
  Dataset d = BibDataset();
  auto all = domain.semantics->InterpretAll(d);
  EXPECT_EQ(all.size(), d.size());
}

}  // namespace
}  // namespace sablock::core
