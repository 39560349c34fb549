#include "core/minhash.h"

#include "arch/kernels.h"
#include "common/check.h"
#include "text/qgram.h"

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

uint64_t LshBandKey(std::span<const uint64_t> sig, int table, int k) {
  uint64_t key = Mix64(0x5ab10c0 + static_cast<uint64_t>(table));
  for (int r = 0; r < k; ++r) {
    key = HashCombine(key, sig[static_cast<size_t>(table) * k + r]);
  }
  return key;
}

LshBander::LshBander(int q, int k, int l, uint64_t seed)
    : q_(q), k_(k), l_(l), hasher_(k * l, seed) {
  SABLOCK_CHECK(q >= 1 && k >= 1 && l >= 1);
}

bool LshBander::Keys(std::string_view text, Scratch* scratch,
                     std::span<uint64_t> keys) const {
  SABLOCK_CHECK(keys.size() == static_cast<size_t>(l_));
  if (text.empty()) return false;
  std::vector<uint64_t>& windows = scratch->windows;
  if (text.size() < static_cast<size_t>(q_)) {
    windows.assign(1, HashBytes(text));
  } else {
    windows.resize(text.size() - static_cast<size_t>(q_) + 1);
    text::QGramWindowHashes(text, q_, windows);
  }
  scratch->signature.resize(static_cast<size_t>(hasher_.num_hashes()));
  hasher_.SignatureInto(windows, scratch->signature);
  for (int t = 0; t < l_; ++t) {
    keys[static_cast<size_t>(t)] = LshBandKey(scratch->signature, t, k_);
  }
  return true;
}

}  // namespace sablock::core
