// Tests for the common substrate: hashing, RNG, PairSet, timer, status.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "common/pair_set.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace sablock {
namespace {

TEST(Mix64Test, IsDeterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(Mix64Test, AvalanchesLowBits) {
  // Consecutive inputs should produce wildly different outputs.
  std::unordered_set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(HashCombineTest, OrderSensitive) {
  uint64_t ab = HashCombine(HashCombine(0, 1), 2);
  uint64_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(HashBytesTest, DistinguishesStringsAndSeeds) {
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
  EXPECT_NE(HashBytes("abc", 1), HashBytes("abc", 2));
  EXPECT_NE(HashBytes(""), HashBytes("a"));
}

TEST(UniversalHashTest, StaysBelowPrime) {
  UniversalHash h = UniversalHash::FromSeed(123, 0);
  for (uint64_t x :
       {uint64_t{0}, uint64_t{1}, uint64_t{42}, ~uint64_t{0},
        UniversalHash::kPrime}) {
    EXPECT_LT(h(x), UniversalHash::kPrime);
  }
}

// Regression: an incomplete Mersenne reduction once let ~87% of outputs
// land at >= p, which collapsed minhash signatures into sentinel values
// and produced dataset-sized LSH buckets.
TEST(UniversalHashTest, FullyReducedOverManyFamilyMembersAndInputs) {
  for (uint64_t index = 0; index < 64; ++index) {
    UniversalHash h = UniversalHash::FromSeed(7, index);
    for (uint64_t i = 0; i < 512; ++i) {
      uint64_t x = Mix64(i);  // spread inputs over the full 64-bit range
      EXPECT_LT(h(x), UniversalHash::kPrime);
    }
  }
}

// Pins the branchless conditional-subtract reduction against the loop
// form it replaced: after folding the three 61-bit limbs the sum is
// < 3p, so exactly two conditional subtracts reach the canonical
// representative — any drift here would silently change every minhash
// signature and LSH bucket in the system.
TEST(UniversalHashTest, BranchlessReductionMatchesLoopReference) {
  for (uint64_t index = 0; index < 16; ++index) {
    UniversalHash h = UniversalHash::FromSeed(31, index);
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t x = Mix64(i);
      constexpr uint64_t kPrime = UniversalHash::kPrime;
      unsigned __int128 prod =
          static_cast<unsigned __int128>(h.a()) * x + h.b();
      uint64_t r = (static_cast<uint64_t>(prod) & kPrime) +
                   (static_cast<uint64_t>(prod >> 61) & kPrime) +
                   static_cast<uint64_t>(prod >> 122);
      while (r >= kPrime) r -= kPrime;
      EXPECT_EQ(h(x), r) << "index=" << index << " x=" << x;
    }
  }
}

TEST(UniversalHashTest, FamilyMembersDiffer) {
  UniversalHash h0 = UniversalHash::FromSeed(9, 0);
  UniversalHash h1 = UniversalHash::FromSeed(9, 1);
  int differing = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    if (h0(x) != h1(x)) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(UniversalHashTest, DeterministicAcrossInstances) {
  UniversalHash a = UniversalHash::FromSeed(5, 7);
  UniversalHash b = UniversalHash::FromSeed(5, 7);
  for (uint64_t x = 0; x < 50; ++x) EXPECT_EQ(a(x), b(x));
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformIndexBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformIndex(7), 7u);
  }
}

TEST(RngTest, DeterministicSequences) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<size_t> s = rng.SampleIndices(10, 4);
    ASSERT_EQ(s.size(), 4u);
    std::set<size_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 4u);
    for (size_t i : s) EXPECT_LT(i, 10u);
  }
}

TEST(RngTest, SampleIndicesFullRange) {
  Rng rng(6);
  std::vector<size_t> s = rng.SampleIndices(5, 5);
  std::set<size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(RngTest, SkewedIndexPrefersSmall) {
  Rng rng(7);
  size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.SkewedIndex(100, 1.3) < 10) ++low;
  }
  // A uniform draw would put ~10% in the first decile; the skewed draw
  // should put considerably more.
  EXPECT_GT(low, static_cast<size_t>(kTrials) / 5);
}

TEST(PairSetTest, InsertAndContains) {
  PairSet set;
  EXPECT_TRUE(set.Insert(1, 2));
  EXPECT_FALSE(set.Insert(1, 2));
  EXPECT_FALSE(set.Insert(2, 1));  // unordered
  EXPECT_TRUE(set.Contains(1, 2));
  EXPECT_TRUE(set.Contains(2, 1));
  EXPECT_FALSE(set.Contains(1, 3));
  EXPECT_EQ(set.size(), 1u);
}

TEST(PairSetTest, GrowsBeyondInitialCapacity) {
  PairSet set(4);
  for (uint32_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.Insert(i, i + 1));
  }
  EXPECT_EQ(set.size(), 10000u);
  for (uint32_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.Contains(i, i + 1));
  }
}

TEST(PairSetTest, ForEachVisitsAllPairsOnce) {
  PairSet set;
  set.Insert(3, 7);
  set.Insert(1, 9);
  set.Insert(2, 5);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  set.ForEach([&seen](uint32_t a, uint32_t b) { seen.emplace(a, b); });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen.count({3, 7}));
  EXPECT_TRUE(seen.count({1, 9}));
  EXPECT_TRUE(seen.count({2, 5}));
}

TEST(PairSetTest, MatchesReferenceImplementation) {
  PairSet set;
  std::set<std::pair<uint32_t, uint32_t>> reference;
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.UniformIndex(200));
    uint32_t b = static_cast<uint32_t>(rng.UniformIndex(200));
    if (a == b) continue;
    uint32_t lo = std::min(a, b);
    uint32_t hi = std::max(a, b);
    bool was_new = reference.emplace(lo, hi).second;
    EXPECT_EQ(set.Insert(a, b), was_new);
  }
  EXPECT_EQ(set.size(), reference.size());
}

// The batch insert must leave the exact slot layout of one-at-a-time
// inserts, duplicates and mid-batch growth included; ForEach walks the
// slots in order, so equal visit sequences mean equal tables.
TEST(PairSetTest, InsertKeysLeavesTheSlotsInsertLeaves) {
  Rng rng(21);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformIndex(3000));
    const uint32_t b = static_cast<uint32_t>(rng.UniformIndex(3000));
    if (a != b) keys.push_back(PairSet::Key(a, b));
  }
  for (size_t batch : {size_t{1}, size_t{5}, size_t{16}, size_t{17},
                       size_t{512}, keys.size()}) {
    PairSet one(4);
    PairSet batched(4);
    for (uint64_t key : keys) {
      one.Insert(static_cast<uint32_t>(key >> 32),
                 static_cast<uint32_t>(key & 0xffffffffULL));
    }
    for (size_t begin = 0; begin < keys.size(); begin += batch) {
      batched.InsertKeys(keys.data() + begin,
                         std::min(batch, keys.size() - begin));
    }
    std::vector<std::pair<uint32_t, uint32_t>> one_slots;
    std::vector<std::pair<uint32_t, uint32_t>> batched_slots;
    one.ForEach([&](uint32_t a, uint32_t b) { one_slots.emplace_back(a, b); });
    batched.ForEach(
        [&](uint32_t a, uint32_t b) { batched_slots.emplace_back(a, b); });
    EXPECT_EQ(batched.size(), one.size()) << "batch " << batch;
    EXPECT_EQ(batched_slots, one_slots) << "batch " << batch;
  }
}

TEST(StatusTest, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.message().empty());
  Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(WallTimerTest, MeasuresNonNegativeMonotonicTime) {
  WallTimer timer;
  double t1 = timer.Seconds();
  double t2 = timer.Seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.Reset();
  EXPECT_GE(timer.Seconds(), 0.0);
  EXPECT_GE(timer.Millis(), 0.0);
}

}  // namespace
}  // namespace sablock
