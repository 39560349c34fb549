#include "core/minhash.h"

#include "arch/kernels.h"
#include "common/check.h"

namespace sablock::core {

MinHasher::MinHasher(int num_hashes, uint64_t seed) {
  SABLOCK_CHECK(num_hashes > 0);
  a_.reserve(static_cast<size_t>(num_hashes));
  b_.reserve(static_cast<size_t>(num_hashes));
  for (int i = 0; i < num_hashes; ++i) {
    UniversalHash h = UniversalHash::FromSeed(seed, static_cast<uint64_t>(i));
    a_.push_back(h.a());
    b_.push_back(h.b());
  }
}

void MinHasher::SignatureInto(std::span<const uint64_t> shingles,
                              std::span<uint64_t> out) const {
  SABLOCK_CHECK(out.size() == a_.size());
  arch::ActiveKernels().minhash_signature(shingles.data(), shingles.size(),
                                          a_.data(), b_.data(), a_.size(),
                                          out.data());
}

std::vector<uint64_t> MinHasher::Signature(
    std::span<const uint64_t> shingles) const {
  std::vector<uint64_t> sig(a_.size());
  SignatureInto(shingles, sig);
  return sig;
}

double MinHasher::EstimateJaccard(std::span<const uint64_t> a,
                                  std::span<const uint64_t> b) {
  SABLOCK_CHECK(a.size() == b.size() && !a.empty());
  size_t agree = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

}  // namespace sablock::core
