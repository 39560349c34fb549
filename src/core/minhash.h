#ifndef SABLOCK_CORE_MINHASH_H_
#define SABLOCK_CORE_MINHASH_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/hashing.h"

namespace sablock::core {

/// The most minhash rows per record an LSH-family spec may ask for: k·l,
/// or depth·l for forest. 65,536 rows are 512 KiB of signature per
/// record, 15× the largest setting the experiments run (fig9's Cora k=6
/// point: 701 tables, 4,206 rows). The spec readers refuse more, and so
/// does the snapshot loader in a band section, so nothing allocates a
/// minhash matrix out of proportion to its records.
inline constexpr long long kMaxMinhashRows = 65536;

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

/// Bucket key of table `table` for signature rows
/// [table*k, table*k + k) of `sig`.
uint64_t LshBandKey(std::span<const uint64_t> sig, int table, int k);

/// The one per-record band computation of the banded minhash LSH
/// (Section 5.1), shared by the batch band column (features::BandColumn,
/// which lsh and sa-lsh read) and the incremental LSH index: a record's
/// blocking text -> the hashes of its q-gram windows -> k·l minhash rows
/// -> one LshBandKey per table. A minhash row is a minimum over the
/// shingles, so hashing every window, repeats included, gives the
/// signature of the distinct set text::QGramHashes holds; a text shorter
/// than q is its one shingle. Immutable once built; every caller brings
/// its own Scratch and reuses it from record to record.
class LshBander {
 public:
  /// l tables of k rows each over q-grams, hash family `seed`.
  LshBander(int q, int k, int l, uint64_t seed);

  /// One caller's buffers: the window hashes and the k·l signature.
  struct Scratch {
    std::vector<uint64_t> windows;
    std::vector<uint64_t> signature;
  };

  /// Writes the l band keys of the record with blocking text `text` into
  /// `keys` (l slots) and returns true. An empty text has no
  /// shingles: the record enters no table, and Keys returns false with
  /// `keys` untouched.
  bool Keys(std::string_view text, Scratch* scratch,
            std::span<uint64_t> keys) const;

 private:
  int q_;
  int k_;
  int l_;
  MinHasher hasher_;  // k·l rows
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_MINHASH_H_
