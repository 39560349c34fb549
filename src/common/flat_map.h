#ifndef SABLOCK_COMMON_FLAT_MAP_H_
#define SABLOCK_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hashing.h"

namespace sablock {

/// Default FlatMap hasher: SplitMix64 finalization so that power-of-two
/// masking sees well-mixed bits even for dense integer keys (record ids,
/// packed pair keys, interned token ids).
struct FlatMapHash {
  uint64_t operator()(uint64_t key) const { return Mix64(key); }
};

/// Cache-conscious open-addressing hash map for the blocking hot paths
/// (token-posting builds, token-id interning): linear
/// probing over one contiguous slot array, power-of-two capacity,
/// tombstone-free — erase() uses backward-shift deletion, so lookups
/// never scan dead entries no matter the insert/erase history.
///
/// Compared to std::unordered_map the probe sequence is a linear walk of
/// adjacent slots (one cache line holds several), there is no per-node
/// allocation, and clear()/rehash keep their memory, which is what the
/// per-table bucket loops want.
///
/// Iteration contract: iterating yields the
/// live slots in slot order, which is a pure function of the key hashes
/// and the insert/erase sequence — two identically-populated maps
/// iterate identically, across processes and platforms. It is NOT
/// insertion order and changes when the table grows; consumers that need
/// a canonical order still sort, consumers that need *determinism for a
/// deterministic input* (golden reproducibility) get it for free.
///
/// Keys are held by value and must be trivially copyable integers (or
/// similar cheap-to-copy types); values only need to be movable.
template <typename K, typename V, typename Hash = FlatMapHash>
class FlatMap {
 public:
  struct Slot {
    K key;
    V value;
  };

  FlatMap() = default;
  explicit FlatMap(size_t expected_size) { reserve(expected_size); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Current slot-array capacity (a power of two, 0 before first insert).
  size_t capacity() const { return slots_.size(); }

  /// Pre-sizes the slot array so `n` keys fit without growing.
  void reserve(size_t n) {
    size_t needed = NextPow2(n + n / 2 + 1);  // keep load factor < ~2/3
    if (needed > slots_.size()) Rehash(needed);
  }

  /// Drops every entry but keeps the slot array (hot loops reuse one map
  /// across rounds without re-paying allocation).
  void clear() {
    std::fill(occupied_.begin(), occupied_.end(), uint8_t{0});
    size_ = 0;
  }

  /// The value for `key`, default-constructing it on first access.
  V& operator[](const K& key) { return *TryEmplace(key).first; }

  /// Inserts `key -> V(args...)` if absent; returns the value slot and
  /// whether it was inserted (std::unordered_map::try_emplace shape).
  template <typename... Args>
  std::pair<V*, bool> TryEmplace(const K& key, Args&&... args) {
    if (NeedsGrowth()) Rehash(slots_.empty() ? kMinCapacity
                                             : slots_.size() * 2);
    size_t i = FindSlot(key);
    if (!occupied_[i]) {
      occupied_[i] = 1;
      slots_[i].key = key;
      slots_[i].value = V(std::forward<Args>(args)...);
      ++size_;
      return {&slots_[i].value, true};
    }
    return {&slots_[i].value, false};
  }

  /// Pointer to the value for `key`, nullptr when absent.
  V* Find(const K& key) {
    if (slots_.empty()) return nullptr;
    size_t i = FindSlot(key);
    return occupied_[i] ? &slots_[i].value : nullptr;
  }
  const V* Find(const K& key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Removes `key` if present (backward-shift deletion: subsequent probe
  /// -chain entries are moved up so no tombstone is left behind).
  bool Erase(const K& key) {
    if (slots_.empty()) return false;
    size_t i = FindSlot(key);
    if (!occupied_[i]) return false;
    const size_t mask = slots_.size() - 1;
    size_t hole = i;
    size_t next = (hole + 1) & mask;
    while (occupied_[next]) {
      size_t home = hash_(static_cast<uint64_t>(slots_[next].key)) & mask;
      // `next` may shift into the hole only if its home position does not
      // lie in the (cyclic) gap (hole, next] — otherwise moving it would
      // break its own probe chain.
      bool movable = ((next - home) & mask) >= ((next - hole) & mask);
      if (movable) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    occupied_[hole] = 0;
    --size_;
    return true;
  }

  /// Forward iterator over live slots in slot order.
  class const_iterator {
   public:
    const Slot& operator*() const { return map_->slots_[index_]; }
    const Slot* operator->() const { return &map_->slots_[index_]; }
    const_iterator& operator++() {
      ++index_;
      SkipDead();
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return index_ == o.index_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    friend class FlatMap;
    const_iterator(const FlatMap* map, size_t index)
        : map_(map), index_(index) {
      SkipDead();
    }
    void SkipDead() {
      while (index_ < map_->slots_.size() && !map_->occupied_[index_]) {
        ++index_;
      }
    }
    const FlatMap* map_;
    size_t index_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

  /// Mutable visitation in slot order (the iterator is const-only to keep
  /// keys immutable; values are mutated through the visitor).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (occupied_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  static size_t NextPow2(size_t n) {
    size_t p = kMinCapacity;
    while (p < n) p <<= 1;
    return p;
  }

  bool NeedsGrowth() const {
    // Grow at 2/3 load: 3·size >= 2·capacity.
    return slots_.empty() || 3 * (size_ + 1) >= 2 * slots_.size();
  }

  size_t FindSlot(const K& key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash_(static_cast<uint64_t>(key)) & mask;
    while (occupied_[i] && !(slots_[i].key == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(size_t new_capacity) {
    SABLOCK_CHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_occupied = std::move(occupied_);
    slots_.clear();
    slots_.resize(new_capacity);
    occupied_.assign(new_capacity, 0);
    const size_t mask = new_capacity - 1;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_occupied[i]) continue;
      size_t j = hash_(static_cast<uint64_t>(old_slots[i].key)) & mask;
      while (occupied_[j]) j = (j + 1) & mask;
      occupied_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> occupied_;
  size_t size_ = 0;
  Hash hash_;
};

}  // namespace sablock

#endif  // SABLOCK_COMMON_FLAT_MAP_H_
