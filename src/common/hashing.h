#ifndef SABLOCK_COMMON_HASHING_H_
#define SABLOCK_COMMON_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace sablock {

/// 64-bit finalizer (SplitMix64). Good avalanche behaviour; used to derive
/// per-table bucket hashes and to seed hash families deterministically.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a hash value with another value, boost::hash_combine style but
/// over 64 bits.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

/// Transparent string hash: with std::equal_to<>, it lets an unordered
/// container keyed by std::string be probed with a std::string_view
/// without building a string.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// FNV-1a over bytes; stable across platforms, used for shingle and bucket
/// keys where determinism matters more than speed.
uint64_t HashBytes(std::string_view bytes, uint64_t seed = 0);

/// FNV-1a constants (the HashBytes fold), exposed for
/// text::QGramWindowHashes, which must reproduce HashBytes exactly.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// (a·x + b) mod p with p = 2^61 - 1, fully reduced to [0, p). The
/// 128-bit product is < 2^125; since 2^61 ≡ 1 (mod p), folding the three
/// 61-bit limbs and two branchless conditional subtracts reduce it
/// completely. Requires a, b < p. This is the scalar reference the SIMD
/// minhash kernels must match bit-for-bit.
inline uint64_t MersenneHash61(uint64_t a, uint64_t x, uint64_t b) {
  constexpr uint64_t kPrime = (1ULL << 61) - 1;
  unsigned __int128 prod = static_cast<unsigned __int128>(a) * x + b;
  uint64_t lo = static_cast<uint64_t>(prod) & kPrime;
  uint64_t mid = static_cast<uint64_t>(prod >> 61) & kPrime;
  uint64_t hi = static_cast<uint64_t>(prod >> 122);
  uint64_t r = lo + mid + hi;
  // r < 3p, so two conditional subtracts fully reduce — branchless
  // (compiles to cmov), unlike the data-dependent `while (r >= p)` loop
  // this replaces.
  r = r >= kPrime ? r - kPrime : r;
  r = r >= kPrime ? r - kPrime : r;
  return r;
}

/// A member of a 2-universal hash family over 64-bit keys:
///   h(x) = ((a * x + b) mod p) mod m  with p = 2^61 - 1 (Mersenne prime).
/// Used to simulate minhash permutations.
class UniversalHash {
 public:
  /// Constructs the identity-seeded family member; prefer FromSeed.
  UniversalHash() : a_(1), b_(0) {}

  /// Deterministically derives the i-th family member from a base seed.
  static UniversalHash FromSeed(uint64_t seed, uint64_t index);

  /// Evaluates the hash; result is in [0, 2^61 - 1).
  uint64_t operator()(uint64_t x) const { return MersenneHash61(a_, x, b_); }

  /// The family parameters, exposed so batched callers (MinHasher's
  /// kernel dispatch) can lay them out as structure-of-arrays.
  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }

  static constexpr uint64_t kPrime = (1ULL << 61) - 1;

 private:
  uint64_t a_;
  uint64_t b_;
};

}  // namespace sablock

#endif  // SABLOCK_COMMON_HASHING_H_
