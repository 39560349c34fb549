#ifndef SABLOCK_CORE_MINHASH_H_
#define SABLOCK_CORE_MINHASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hashing.h"

namespace sablock::core {

/// Minhash signature generator (Section 5.1, step 2). Permutations are
/// simulated with a 2-universal hash family over 64-bit shingle hashes; the
/// i-th signature element of a shingle set S is min_{x ∈ S} h_i(x).
///
/// For two records, P[sig_i equal] ≈ Jaccard(S1, S2), so signatures
/// approximately preserve textual similarity.
class MinHasher {
 public:
  /// `num_hashes` is typically k·l for a banded LSH index.
  MinHasher(int num_hashes, uint64_t seed);

  int num_hashes() const { return static_cast<int>(a_.size()); }

  /// Sentinel signature value of an empty shingle set (all hash functions
  /// return this maximum); empty records are excluded from LSH tables.
  static constexpr uint64_t kEmptySlot = UniversalHash::kPrime;

  /// Computes the minhash signature of a shingle set into a caller-owned
  /// buffer of exactly num_hashes() slots — no allocation. Dispatches to
  /// the active SIMD kernel (see src/arch/); results are byte-identical
  /// across dispatch levels.
  void SignatureInto(std::span<const uint64_t> shingles,
                     std::span<uint64_t> out) const;

  /// Computes the minhash signature of a shingle set (allocating wrapper
  /// over SignatureInto).
  std::vector<uint64_t> Signature(std::span<const uint64_t> shingles) const;

  /// Fraction of agreeing positions — an unbiased estimate of the Jaccard
  /// similarity of the underlying shingle sets.
  static double EstimateJaccard(std::span<const uint64_t> a,
                                std::span<const uint64_t> b);

 private:
  // Hash-family parameters in structure-of-arrays layout so the batched
  // kernels can load 2/4 (a, b) pairs per vector register.
  std::vector<uint64_t> a_;
  std::vector<uint64_t> b_;
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_MINHASH_H_
