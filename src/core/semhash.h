#ifndef SABLOCK_CORE_SEMHASH_H_
#define SABLOCK_CORE_SEMHASH_H_

#include <cstdint>
#include <vector>

#include "core/taxonomy.h"

namespace sablock::core {

/// Binary semantic signature produced by the semhash functions
/// (Section 4.4): bit i is 1 iff the record is related to semantic feature
/// (leaf concept) i. Packed into 64-bit words.
class SemSignature {
 public:
  SemSignature() = default;
  explicit SemSignature(uint32_t dimension)
      : dimension_(dimension), words_((dimension + 63) / 64, 0) {}

  uint32_t dimension() const { return dimension_; }

  void Set(uint32_t bit) { words_[bit >> 6] |= (1ULL << (bit & 63)); }

  bool Get(uint32_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }

  /// Number of 1-bits.
  uint32_t PopCount() const;

  /// Number of positions where both signatures are 1.
  uint32_t AndCount(const SemSignature& other) const;

  /// Jaccard coefficient over the 1-bits: |a ∧ b| / |a ∨ b|. Two all-zero
  /// signatures have Jaccard 1 by the usual empty-set convention.
  double Jaccard(const SemSignature& other) const;

  const std::vector<uint64_t>& words() const { return words_; }

 private:
  uint32_t dimension_ = 0;
  std::vector<uint64_t> words_;
};

/// Builds semhash signatures for a record collection (Algorithm 1).
///
/// The feature set C is the union of leaf(c) over every concept c appearing
/// in some interpretation ζ(r), which satisfies the three semhash-family
/// conditions: Disjointness (distinct leaves never subsume each other),
/// Completeness (every interpreted concept's leaves are included) and
/// Non-emptiness (only leaves reachable from some record are included).
///
/// g_i(r) = 1 iff ∃c ∈ ζ(r) with feature-leaf c_i ⪯ c.
class SemhashEncoder {
 public:
  /// Builds the encoder from the taxonomy and the interpretations of all
  /// records (Algorithm 1 step 1). Records with empty interpretations
  /// contribute nothing.
  static SemhashEncoder Build(
      const Taxonomy& taxonomy,
      const std::vector<std::vector<ConceptId>>& interpretations);

  /// Builds an encoder whose features are all leaves of the taxonomy
  /// (useful when the record set is not known in advance).
  static SemhashEncoder BuildFromAllLeaves(const Taxonomy& taxonomy);

  /// Number of semhash functions |C| (signature bits).
  uint32_t dimension() const {
    return static_cast<uint32_t>(feature_leaf_ordinals_.size());
  }

  /// Encodes one record's interpretation (Algorithm 1 step 2).
  SemSignature Encode(const Taxonomy& taxonomy,
                      const std::vector<ConceptId>& zeta) const;

  /// Encodes all interpretations.
  std::vector<SemSignature> EncodeAll(
      const Taxonomy& taxonomy,
      const std::vector<std::vector<ConceptId>>& interpretations) const;

 private:
  // Sorted global leaf ordinals selected as features, and the taxonomy's
  // leaf ordinal -> feature index mapping (dense vector; kInvalidConcept
  // marks unselected leaves).
  std::vector<uint32_t> feature_leaf_ordinals_;
  std::vector<uint32_t> ordinal_to_feature_;
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_SEMHASH_H_
