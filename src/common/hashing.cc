#include "common/hashing.h"

namespace sablock {

uint64_t HashBytes(std::string_view bytes, uint64_t seed) {
  uint64_t h = kFnv1aOffsetBasis ^ Mix64(seed);
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnv1aPrime;
  }
  return h;
}

UniversalHash UniversalHash::FromSeed(uint64_t seed, uint64_t index) {
  UniversalHash h;
  uint64_t s = Mix64(seed + 0x51ed270b * (index + 1));
  // a must be nonzero modulo p.
  h.a_ = (Mix64(s) % (kPrime - 1)) + 1;
  h.b_ = Mix64(s ^ 0xabcdef1234567890ULL) % kPrime;
  return h;
}

}  // namespace sablock
