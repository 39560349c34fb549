// Tests for the TF-IDF vectorizer backing the canopy baselines. Documents
// are term-id lists, and the vectorizer is built from their postings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "text/tfidf.h"

namespace sablock::text {
namespace {

using Terms = std::vector<uint32_t>;

/// A vectorizer built over `documents`: postings[t] lists, in order, the
/// documents holding term t.
TfIdfVectorizer BuiltOver(const std::vector<Terms>& documents) {
  std::vector<std::vector<uint32_t>> postings;
  for (uint32_t d = 0; d < documents.size(); ++d) {
    for (uint32_t t : documents[d]) {
      if (t >= postings.size()) postings.resize(t + 1);
      if (postings[t].empty() || postings[t].back() != d) {
        postings[t].push_back(d);
      }
    }
  }
  TfIdfVectorizer v;
  v.Build(postings, documents.size());
  return v;
}

TEST(TfIdfTest, VocabularyAndDimensions) {
  TfIdfVectorizer v = BuiltOver({{0, 1, 2}, {0, 1}, {0}});
  EXPECT_EQ(v.vocabulary_size(), 3u);
}

TEST(TfIdfTest, VectorsAreL2Normalized) {
  // alpha=0, beta=1, gamma=2, delta=3.
  TfIdfVectorizer v = BuiltOver({{0, 1, 2}, {0, 1}, {3}});
  SparseVector s = v.Vectorize(Terms{0, 1, 2});
  double norm = 0.0;
  for (const auto& [term, w] : s.entries) norm += w * w;
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(TfIdfTest, IdenticalDocumentsHaveCosineOne) {
  TfIdfVectorizer v = BuiltOver({{0, 1, 2}, {0, 3}});
  SparseVector a = v.Vectorize(Terms{0, 1, 2});
  SparseVector b = v.Vectorize(Terms{0, 1, 2});
  EXPECT_NEAR(CosineSimilarity(a, b), 1.0, 1e-6);
}

TEST(TfIdfTest, DisjointDocumentsHaveCosineZero) {
  TfIdfVectorizer v = BuiltOver({{0, 1}, {2, 3}});
  EXPECT_DOUBLE_EQ(
      CosineSimilarity(v.Vectorize(Terms{0, 1}), v.Vectorize(Terms{2, 3})),
      0.0);
}

TEST(TfIdfTest, RareTermsDominate) {
  // "common"=0 appears everywhere, "rare"=1 once, others 2-4 once each:
  // two documents sharing only "rare" are closer than two sharing only
  // "common".
  TfIdfVectorizer v = BuiltOver({{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  double share_rare = CosineSimilarity(v.Vectorize(Terms{1, 2}),
                                       v.Vectorize(Terms{1, 3}));
  double share_common = CosineSimilarity(v.Vectorize(Terms{0, 2}),
                                         v.Vectorize(Terms{0, 3}));
  EXPECT_GT(share_rare, 0.0);
  EXPECT_GT(share_rare, share_common);
}

TEST(TfIdfTest, RepeatedTermsCountAsTermFrequency) {
  // Terms 0 and 1 have the same document frequency, so a document that
  // holds term 0 twice weighs it twice as much as term 1.
  TfIdfVectorizer v = BuiltOver({{0, 1}, {2}});
  SparseVector s = v.Vectorize(Terms{0, 1, 0});
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(s.entries[0].first, 0u);
  EXPECT_EQ(s.entries[1].first, 1u);
  EXPECT_NEAR(s.entries[0].second, 2.0 * s.entries[1].second, 1e-6);
}

TEST(TfIdfTest, EmptyDocument) {
  TfIdfVectorizer v = BuiltOver({{0, 1}});
  SparseVector s = v.Vectorize(Terms{});
  EXPECT_TRUE(s.entries.empty());
  EXPECT_DOUBLE_EQ(CosineSimilarity(s, v.Vectorize(Terms{0})), 0.0);
}

}  // namespace
}  // namespace sablock::text
