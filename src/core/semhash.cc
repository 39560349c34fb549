#include "core/semhash.h"

#include <bit>

#include "common/check.h"

namespace sablock::core {

uint32_t SemSignature::PopCount() const {
  uint32_t count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

uint32_t SemSignature::AndCount(const SemSignature& other) const {
  SABLOCK_DCHECK(dimension_ == other.dimension_);
  uint32_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] & other.words_[i]);
  }
  return count;
}

double SemSignature::Jaccard(const SemSignature& other) const {
  SABLOCK_DCHECK(dimension_ == other.dimension_);
  uint32_t inter = 0;
  uint32_t uni = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    inter += std::popcount(words_[i] & other.words_[i]);
    uni += std::popcount(words_[i] | other.words_[i]);
  }
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

SemhashEncoder SemhashEncoder::Build(
    const Taxonomy& taxonomy,
    const std::vector<std::vector<ConceptId>>& interpretations) {
  SABLOCK_CHECK_MSG(taxonomy.finalized(), "taxonomy must be finalized");
  std::vector<bool> used(taxonomy.TotalLeaves(), false);
  for (const std::vector<ConceptId>& zeta : interpretations) {
    for (ConceptId c : zeta) {
      for (uint32_t o = taxonomy.LeafBegin(c); o < taxonomy.LeafEnd(c); ++o) {
        used[o] = true;
      }
    }
  }
  SemhashEncoder enc;
  enc.ordinal_to_feature_.assign(taxonomy.TotalLeaves(), kInvalidConcept);
  for (uint32_t o = 0; o < used.size(); ++o) {
    if (used[o]) {
      enc.ordinal_to_feature_[o] =
          static_cast<uint32_t>(enc.feature_leaf_ordinals_.size());
      enc.feature_leaf_ordinals_.push_back(o);
    }
  }
  return enc;
}

SemhashEncoder SemhashEncoder::BuildFromAllLeaves(const Taxonomy& taxonomy) {
  SABLOCK_CHECK_MSG(taxonomy.finalized(), "taxonomy must be finalized");
  SemhashEncoder enc;
  enc.ordinal_to_feature_.resize(taxonomy.TotalLeaves());
  enc.feature_leaf_ordinals_.resize(taxonomy.TotalLeaves());
  for (uint32_t o = 0; o < taxonomy.TotalLeaves(); ++o) {
    enc.ordinal_to_feature_[o] = o;
    enc.feature_leaf_ordinals_[o] = o;
  }
  return enc;
}

SemSignature SemhashEncoder::Encode(
    const Taxonomy& taxonomy, const std::vector<ConceptId>& zeta) const {
  SemSignature sig(dimension());
  for (ConceptId c : zeta) {
    for (uint32_t o = taxonomy.LeafBegin(c); o < taxonomy.LeafEnd(c); ++o) {
      uint32_t feature = ordinal_to_feature_[o];
      if (feature != kInvalidConcept) sig.Set(feature);
    }
  }
  return sig;
}

std::vector<SemSignature> SemhashEncoder::EncodeAll(
    const Taxonomy& taxonomy,
    const std::vector<std::vector<ConceptId>>& interpretations) const {
  std::vector<SemSignature> out;
  out.reserve(interpretations.size());
  for (const std::vector<ConceptId>& zeta : interpretations) {
    out.push_back(Encode(taxonomy, zeta));
  }
  return out;
}

}  // namespace sablock::core
