// Tests for semhash signatures (Algorithm 1) and Proposition 4.3.

#include <gtest/gtest.h>

#include <vector>

#include "core/semhash.h"
#include "core/taxonomy.h"

namespace sablock::core {
namespace {

TEST(SemSignatureTest, SetGetPopCount) {
  SemSignature sig(70);  // spans two words
  EXPECT_EQ(sig.PopCount(), 0u);
  sig.Set(0);
  sig.Set(63);
  sig.Set(64);
  sig.Set(69);
  EXPECT_TRUE(sig.Get(0));
  EXPECT_TRUE(sig.Get(69));
  EXPECT_FALSE(sig.Get(1));
  EXPECT_EQ(sig.PopCount(), 4u);
}

TEST(SemSignatureTest, JaccardAndAndCount) {
  SemSignature a(8);
  SemSignature b(8);
  a.Set(0);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  EXPECT_EQ(a.AndCount(b), 1u);
  EXPECT_NEAR(a.Jaccard(b), 0.25, 1e-12);  // 1 shared / 4 in union
  SemSignature zero(8);
  EXPECT_DOUBLE_EQ(zero.Jaccard(zero), 1.0);  // empty-set convention
  EXPECT_DOUBLE_EQ(zero.Jaccard(a), 0.0);
}

TEST(SemhashEncoderTest, BuildSelectsOnlyReachableLeaves) {
  Taxonomy t = MakeBibliographicTaxonomy();
  // Records only interpret to C2 (leaves C3, C4, C5) and C9.
  std::vector<std::vector<ConceptId>> zetas = {
      {t.Require("C2")},
      {t.Require("C9")},
  };
  SemhashEncoder enc = SemhashEncoder::Build(t, zetas);
  EXPECT_EQ(enc.dimension(), 4u);  // C3, C4, C5, C9 (C7, C8 unreachable)
}

TEST(SemhashEncoderTest, FiveBitCoraSignatures) {
  // The paper's Cora setup yields 5-bit signatures: Table 1 reaches C3, C4,
  // C7, C8 directly and C1 covers C5 as well — but never C9.
  Taxonomy t = MakeBibliographicTaxonomy();
  std::vector<std::vector<ConceptId>> zetas = {
      {t.Require("C3"), t.Require("C4"), t.Require("C6")},
      {t.Require("C1")},
      {t.Require("C7"), t.Require("C8")},
  };
  SemhashEncoder enc = SemhashEncoder::Build(t, zetas);
  EXPECT_EQ(enc.dimension(), 5u);
}

TEST(SemhashEncoderTest, EncodeSetsBitsUnderConcepts) {
  Taxonomy t = MakeBibliographicTaxonomy();
  SemhashEncoder enc = SemhashEncoder::BuildFromAllLeaves(t);
  ASSERT_EQ(enc.dimension(), 6u);

  SemSignature journal = enc.Encode(t, {t.Require("C3")});
  EXPECT_EQ(journal.PopCount(), 1u);

  SemSignature peer = enc.Encode(t, {t.Require("C2")});
  EXPECT_EQ(peer.PopCount(), 3u);

  SemSignature root = enc.Encode(t, {t.Require("C0")});
  EXPECT_EQ(root.PopCount(), 6u);

  SemSignature empty = enc.Encode(t, {});
  EXPECT_EQ(empty.PopCount(), 0u);
}

TEST(SemhashEncoderTest, SignatureJaccardTracksSubsumption) {
  Taxonomy t = MakeBibliographicTaxonomy();
  SemhashEncoder enc = SemhashEncoder::BuildFromAllLeaves(t);
  SemSignature c2 = enc.Encode(t, {t.Require("C2")});
  SemSignature c3 = enc.Encode(t, {t.Require("C3")});
  SemSignature c6 = enc.Encode(t, {t.Require("C6")});
  // Jaccard(G(C2-record), G(C3-record)) = 1/3 and C2 vs C6 are disjoint.
  EXPECT_NEAR(c2.Jaccard(c3), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(c2.Jaccard(c6), 0.0);
}

// Proposition 4.3: the Jaccard order of semhash signatures agrees with the
// semantic-similarity order of the underlying records.
TEST(SemhashEncoderTest, Proposition43OrderPreservation) {
  Taxonomy t = MakeBibliographicTaxonomy();
  SemhashEncoder enc = SemhashEncoder::BuildFromAllLeaves(t);

  const std::vector<std::vector<ConceptId>> zetas = {
      {t.Require("C4")},
      {t.Require("C3"), t.Require("C4")},
      {t.Require("C0")},
      {t.Require("C7")},
      {t.Require("C2")},
      {t.Require("C1")},
  };
  std::vector<SemSignature> sigs;
  for (const auto& z : zetas) sigs.push_back(enc.Encode(t, z));

  for (size_t a = 0; a < zetas.size(); ++a) {
    for (size_t b = 0; b < zetas.size(); ++b) {
      for (size_t c = 0; c < zetas.size(); ++c) {
        for (size_t d = 0; d < zetas.size(); ++d) {
          double sim_ab = t.RecordSimilarity(zetas[a], zetas[b]);
          double sim_cd = t.RecordSimilarity(zetas[c], zetas[d]);
          double jac_ab = sigs[a].Jaccard(sigs[b]);
          double jac_cd = sigs[c].Jaccard(sigs[d]);
          if (sim_ab > sim_cd + 1e-12) {
            EXPECT_GE(jac_ab, jac_cd - 1e-12)
                << "a=" << a << " b=" << b << " c=" << c << " d=" << d;
          }
        }
      }
    }
  }
}

TEST(SemhashEncoderTest, EncodeAllMatchesIndividualEncodes) {
  Taxonomy t = MakeBibliographicTaxonomy();
  std::vector<std::vector<ConceptId>> zetas = {
      {t.Require("C3")}, {t.Require("C2")}, {}};
  SemhashEncoder enc = SemhashEncoder::Build(t, zetas);
  std::vector<SemSignature> all = enc.EncodeAll(t, zetas);
  ASSERT_EQ(all.size(), 3u);
  for (size_t i = 0; i < zetas.size(); ++i) {
    EXPECT_EQ(all[i].words(), enc.Encode(t, zetas[i]).words());
  }
}

TEST(SemhashEncoderTest, FeaturesAreTheLeaves) {
  // With every leaf a feature, encoding leaf o alone sets bit o and no
  // other.
  Taxonomy t = MakeBibliographicTaxonomy();
  SemhashEncoder enc = SemhashEncoder::BuildFromAllLeaves(t);
  ASSERT_EQ(enc.dimension(), t.TotalLeaves());
  for (uint32_t o = 0; o < t.TotalLeaves(); ++o) {
    ASSERT_TRUE(t.IsLeaf(t.LeafAt(o)));
    SemSignature sig = enc.Encode(t, {t.LeafAt(o)});
    EXPECT_EQ(sig.PopCount(), 1u) << o;
    EXPECT_TRUE(sig.Get(o)) << o;
  }
}

TEST(SemhashEncoderTest, EmptyInterpretationsGiveZeroDimension) {
  Taxonomy t = MakeBibliographicTaxonomy();
  std::vector<std::vector<ConceptId>> zetas = {{}, {}};
  SemhashEncoder enc = SemhashEncoder::Build(t, zetas);
  EXPECT_EQ(enc.dimension(), 0u);
}

}  // namespace
}  // namespace sablock::core
