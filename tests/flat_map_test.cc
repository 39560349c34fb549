// Tests for the open-addressing FlatMap (common/flat_map.h): hash-map
// semantics against a std::unordered_map reference under a random
// insert/erase workload, backward-shift deletion correctness, and the
// deterministic slot-order iteration contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/random.h"

namespace sablock {
namespace {

TEST(FlatMapTest, InsertFindAndOperatorBracket) {
  FlatMap<uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7), nullptr);
  m[7] = 70;
  m[9] = 90;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  EXPECT_EQ(*m.Find(9), 90);
  EXPECT_FALSE(m.Contains(8));
  // operator[] default-constructs on first access, like std::map.
  EXPECT_EQ(m[8], 0);
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatMapTest, TryEmplaceReportsInsertion) {
  FlatMap<uint32_t, std::vector<int>> m;
  auto [v1, fresh1] = m.TryEmplace(5);
  EXPECT_TRUE(fresh1);
  v1->push_back(1);
  auto [v2, fresh2] = m.TryEmplace(5);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(v2, v1);
  EXPECT_EQ(v2->size(), 1u);
}

TEST(FlatMapTest, GrowsPastInitialCapacityWithoutLosingEntries) {
  FlatMap<uint64_t, uint64_t> m;
  constexpr uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) m[i] = i * 3;
  EXPECT_EQ(m.size(), kN);
  // Power-of-two capacity, load factor below the 2/3 growth threshold.
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
  EXPECT_LT(3 * m.size(), 2 * m.capacity());
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_NE(m.Find(i), nullptr) << i;
    EXPECT_EQ(*m.Find(i), i * 3);
  }
  EXPECT_FALSE(m.Contains(kN + 1));
}

TEST(FlatMapTest, ReserveAvoidsGrowth) {
  FlatMap<uint64_t, int> m;
  m.reserve(1000);
  size_t cap = m.capacity();
  for (uint64_t i = 0; i < 1000; ++i) m[i] = 1;
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMapTest, EraseBackwardShiftKeepsProbeChainsIntact) {
  // Adversarial case for open addressing: many keys colliding into the
  // same home slot, then deleting from the middle of the probe chain.
  // With tombstone-free backward-shift deletion every survivor must stay
  // findable.
  struct CollidingHash {
    uint64_t operator()(uint64_t key) const { return key % 4; }
  };
  FlatMap<uint64_t, uint64_t, CollidingHash> m;
  for (uint64_t i = 0; i < 64; ++i) m[i] = i;
  Rng rng(99);
  std::vector<uint64_t> alive;
  for (uint64_t i = 0; i < 64; ++i) alive.push_back(i);
  while (!alive.empty()) {
    size_t pick = rng.UniformIndex(alive.size());
    uint64_t key = alive[pick];
    alive.erase(alive.begin() + static_cast<ptrdiff_t>(pick));
    EXPECT_TRUE(m.Erase(key));
    EXPECT_FALSE(m.Contains(key));
    EXPECT_FALSE(m.Erase(key));  // double erase is a no-op
    EXPECT_EQ(m.size(), alive.size());
    for (uint64_t k : alive) {
      ASSERT_NE(m.Find(k), nullptr) << "lost " << k << " after erasing "
                                    << key;
      EXPECT_EQ(*m.Find(k), k);
    }
  }
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomWorkload) {
  FlatMap<uint64_t, int> m;
  std::unordered_map<uint64_t, int> ref;
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 500));
    if (rng.UniformInt(0, 2) == 0) {
      EXPECT_EQ(m.Erase(key), ref.erase(key) > 0);
    } else {
      int value = static_cast<int>(rng.UniformInt(0, 1000));
      m[key] = value;
      ref[key] = value;
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [key, value] : ref) {
    ASSERT_NE(m.Find(key), nullptr) << key;
    EXPECT_EQ(*m.Find(key), value);
  }
}

TEST(FlatMapTest, ClearKeepsCapacity) {
  FlatMap<uint64_t, int> m;
  for (uint64_t i = 0; i < 100; ++i) m[i] = 1;
  size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_FALSE(m.Contains(5));
  m[5] = 2;
  EXPECT_EQ(*m.Find(5), 2);
}

TEST(FlatMapTest, IterationVisitsEveryLiveEntryOnce) {
  FlatMap<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 777; ++i) m[i * 17] = i;
  m.Erase(0);
  m.Erase(17 * 5);
  std::unordered_map<uint64_t, uint64_t> seen;
  for (const auto& [key, value] : m) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "duplicate " << key;
  }
  EXPECT_EQ(seen.size(), m.size());
  for (uint64_t i = 1; i < 777; ++i) {
    if (i == 5) continue;
    EXPECT_EQ(seen.at(i * 17), i);
  }
}

// The iteration contract: two maps populated
// by the same insert/erase sequence iterate in the same order — the
// order is a pure function of the key hashes and the history, with no
// per-instance or per-process randomization.
TEST(FlatMapTest, IterationOrderIsDeterministicForSameHistory) {
  auto build = [] {
    FlatMap<uint64_t, int> m;
    Rng rng(1234);
    for (int i = 0; i < 5000; ++i) {
      m[static_cast<uint64_t>(rng.UniformInt(0, 2000))] = i;
    }
    for (int i = 0; i < 500; ++i) {
      m.Erase(static_cast<uint64_t>(rng.UniformInt(0, 2000)));
    }
    return m;
  };
  FlatMap<uint64_t, int> m1 = build();
  FlatMap<uint64_t, int> m2 = build();
  std::vector<std::pair<uint64_t, int>> o1, o2;
  for (const auto& [key, value] : m1) o1.emplace_back(key, value);
  for (const auto& [key, value] : m2) o2.emplace_back(key, value);
  EXPECT_EQ(o1, o2);
  // ForEach sees the same order as the const iterator.
  std::vector<std::pair<uint64_t, int>> o3;
  m1.ForEach([&](uint64_t key, int& value) { o3.emplace_back(key, value); });
  EXPECT_EQ(o1, o3);
}

}  // namespace
}  // namespace sablock
