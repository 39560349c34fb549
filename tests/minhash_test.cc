// Tests for the minhash family and the shingle column (Section 5.1 steps
// 1-2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/minhash.h"
#include "data/record.h"
#include "features/feature_store.h"
#include "text/qgram.h"

namespace sablock::core {
namespace {

TEST(MinHasherTest, SignatureLengthAndDeterminism) {
  MinHasher h(16, 7);
  std::vector<uint64_t> shingles = {1, 2, 3, 4, 5};
  std::vector<uint64_t> s1 = h.Signature(shingles);
  std::vector<uint64_t> s2 = h.Signature(shingles);
  EXPECT_EQ(s1.size(), 16u);
  EXPECT_EQ(s1, s2);
}

TEST(MinHasherTest, EmptyShingleSetIsSentinel) {
  MinHasher h(8, 7);
  std::vector<uint64_t> sig = h.Signature({});
  for (uint64_t v : sig) EXPECT_EQ(v, MinHasher::kEmptySlot);
}

// Regression companion to UniversalHashTest.FullyReduced...: a non-empty
// shingle set must never leave sentinel slots in its signature, otherwise
// unrelated records collide on the sentinel rows.
TEST(MinHasherTest, NonEmptySetsNeverProduceSentinelSlots) {
  MinHasher h(135, 7);
  std::vector<uint64_t> sig =
      h.Signature(text::QGramHashes("marilyn flores", 2));
  for (uint64_t v : sig) EXPECT_LT(v, MinHasher::kEmptySlot);
}

TEST(MinHasherTest, IdenticalSetsIdenticalSignatures) {
  MinHasher h(32, 9);
  std::vector<uint64_t> a = {10, 20, 30};
  std::vector<uint64_t> b = {10, 20, 30};
  EXPECT_EQ(h.Signature(a), h.Signature(b));
  EXPECT_DOUBLE_EQ(MinHasher::EstimateJaccard(h.Signature(a), h.Signature(b)),
                   1.0);
}

TEST(MinHasherTest, DisjointSetsRarelyAgree) {
  MinHasher h(128, 11);
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  for (uint64_t i = 0; i < 50; ++i) {
    a.push_back(i);
    b.push_back(1000 + i);
  }
  double est = MinHasher::EstimateJaccard(h.Signature(a), h.Signature(b));
  EXPECT_LT(est, 0.1);
}

TEST(MinHasherTest, EstimatesJaccardWithinTolerance) {
  // Sets with known overlap: |A∩B| = 50, |A∪B| = 150 -> J = 1/3.
  MinHasher h(512, 13);
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  for (uint64_t i = 0; i < 100; ++i) a.push_back(i);
  for (uint64_t i = 50; i < 150; ++i) b.push_back(i);
  double est = MinHasher::EstimateJaccard(h.Signature(a), h.Signature(b));
  EXPECT_NEAR(est, 1.0 / 3.0, 0.08);
}

TEST(MinHasherTest, SignatureIntoMatchesAllocatingSignature) {
  MinHasher h(37, 5);  // odd count exercises the SIMD kernels' tail loop
  std::vector<uint64_t> shingles = text::QGramHashes("signature into", 3);
  std::vector<uint64_t> buf(37, 0xdeadbeef);
  h.SignatureInto(shingles, buf);
  EXPECT_EQ(buf, h.Signature(shingles));
}

TEST(MinHasherTest, DifferentSeedsGiveDifferentFamilies) {
  MinHasher h1(8, 1);
  MinHasher h2(8, 2);
  std::vector<uint64_t> shingles = {5, 6, 7};
  EXPECT_NE(h1.Signature(shingles), h2.Signature(shingles));
}

// Section 5.1 step 1 (records to shingle sets) as production reads it:
// the dataset's FeatureStore shingle column.
std::vector<uint64_t> ShinglesOf(const data::Dataset& d,
                                 const std::vector<std::string>& attributes,
                                 data::RecordId id) {
  const std::span<const uint64_t> row =
      d.features().ShinglesFor(attributes, 3).Row(id);
  return {row.begin(), row.end()};
}

TEST(ShingleColumnTest, UsesSelectedAttributesOnly) {
  data::Dataset d{data::Schema({"a", "b"})};
  d.Add({{"hello", "ignored"}});
  d.Add({{"hello", "different"}});
  EXPECT_EQ(ShinglesOf(d, {"a"}, 0), ShinglesOf(d, {"a"}, 1));
  EXPECT_NE(ShinglesOf(d, {"a", "b"}, 0), ShinglesOf(d, {"a", "b"}, 1));
}

TEST(ShingleColumnTest, NormalizesBeforeShingling) {
  data::Dataset d{data::Schema({"a"})};
  d.Add({{"Cascade-Correlation"}});
  d.Add({{"cascade correlation"}});
  EXPECT_EQ(ShinglesOf(d, {"a"}, 0), ShinglesOf(d, {"a"}, 1));
}

TEST(ShingleColumnTest, EmptyRecordHasNoShingles) {
  data::Dataset d{data::Schema({"a"})};
  d.Add({{""}});
  EXPECT_TRUE(ShinglesOf(d, {"a"}, 0).empty());
}

TEST(MinHasherTest, AgreementTracksJaccardAcrossSimilarities) {
  // Sweep overlap levels and confirm the estimate is monotone-ish.
  MinHasher h(256, 17);
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 100; ++i) base.push_back(i);
  double prev_est = 1.1;
  for (int shift : {0, 20, 40, 60, 80}) {
    std::vector<uint64_t> other;
    for (uint64_t i = 0; i < 100; ++i) {
      other.push_back(i + static_cast<uint64_t>(shift) * 10000);
    }
    // shift=0 -> identical; larger shift -> fully disjoint. Use partial
    // overlap: first `100 - shift` elements shared.
    other.resize(100);
    for (int i = 0; i < 100 - shift; ++i) other[i] = base[i];
    std::sort(other.begin(), other.end());
    other.erase(std::unique(other.begin(), other.end()), other.end());
    double est = MinHasher::EstimateJaccard(h.Signature(base),
                                            h.Signature(other));
    EXPECT_LE(est, prev_est + 0.12);
    prev_est = est;
  }
}

}  // namespace
}  // namespace sablock::core
