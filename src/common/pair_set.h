#ifndef SABLOCK_COMMON_PAIR_SET_H_
#define SABLOCK_COMMON_PAIR_SET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hashing.h"

namespace sablock {

/// Open-addressing hash set of unordered record-id pairs, used to count the
/// distinct candidate pairs Γ of a block collection. Millions of inserts are
/// the common case (RR / PQ computation on the NC-Voter-scale data), so this
/// avoids the per-node overhead of std::unordered_set.
///
/// Pairs are canonicalized (min, max) and packed into a 64-bit key; record
/// ids must be < 2^32 and the pair (i, i) is rejected.
class PairSet {
 public:
  explicit PairSet(size_t expected_pairs = 64) {
    size_t cap = 16;
    while (cap < expected_pairs * 2) cap <<= 1;
    slots_.assign(cap, kEmpty);
  }

  /// The packed key of the unordered pair {a, b}: (min << 32) | max.
  static uint64_t Key(uint32_t a, uint32_t b) {
    SABLOCK_DCHECK(a != b);
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  /// Inserts the unordered pair {a, b}; returns true if it was new.
  bool Insert(uint32_t a, uint32_t b) { return InsertAndGrow(Key(a, b)); }

  /// Inserts `n` packed keys (see Key) in order, leaving exactly the slots
  /// that Insert called once per key in the same order leaves. While it
  /// probes key i it prefetches the home slot of key i + kPrefetchDistance,
  /// so a batch over a table larger than the caches overlaps its misses
  /// instead of taking them one at a time.
  void InsertKeys(const uint64_t* keys, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) {
        __builtin_prefetch(
            &slots_[Mix64(keys[i + kPrefetchDistance]) & (slots_.size() - 1)]);
      }
      InsertAndGrow(keys[i]);
    }
  }

  /// True if the unordered pair {a, b} is present.
  bool Contains(uint32_t a, uint32_t b) const {
    if (a > b) std::swap(a, b);
    uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    size_t mask = slots_.size() - 1;
    size_t i = Mix64(key) & mask;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask;
    }
    return false;
  }

  /// Number of distinct pairs inserted.
  size_t size() const { return size_; }

  /// Invokes fn(a, b) for each stored pair, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t key : slots_) {
      if (key != kEmpty) {
        fn(static_cast<uint32_t>(key >> 32),
           static_cast<uint32_t>(key & 0xffffffffULL));
      }
    }
  }

 private:
  // (0xffffffff, 0xffffffff) is unrepresentable as a canonical pair because
  // a < b always holds after canonicalization, so ~0 is a safe empty marker.
  static constexpr uint64_t kEmpty = ~0ULL;
  // Keys probed ahead of the one being inserted: enough in-flight misses
  // to cover DRAM latency at a few ns of probe work per key.
  static constexpr size_t kPrefetchDistance = 16;

  bool InsertAndGrow(uint64_t key) {
    if (!InsertKey(key)) return false;
    if (size_ * 10 >= slots_.size() * 7) Grow();
    return true;
  }

  bool InsertKey(uint64_t key) {
    size_t mask = slots_.size() - 1;
    size_t i = Mix64(key) & mask;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    size_ = 0;
    for (uint64_t key : old) {
      if (key != kEmpty) InsertKey(key);
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

}  // namespace sablock

#endif  // SABLOCK_COMMON_PAIR_SET_H_
