// AVX2 kernels: 4 lanes of 64-bit per vector. Compiled with -mavx2 on
// this translation unit only (see CMakeLists.txt); when the flag is not
// available the TU degrades to a nullptr table and dispatch falls back.
//
// Bit-exactness: the Mersenne-61 hash computes the mathematically exact
// (a·x + b) mod 2^61-1 via 32-bit limb products, fully reduced — the
// same canonical representative the scalar MersenneHash61 produces.

#include "arch/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "common/hashing.h"

namespace sablock::arch {
namespace {

constexpr uint64_t kP61 = (1ULL << 61) - 1;
constexpr size_t kShingleTile = 4096;  // matches the scalar blocking

inline __m256i Set1(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// (a·x + b) mod 2^61-1 per lane, fully reduced to [0, p). Requires
/// a, b < p (so the high 32-bit limb of `a` is < 2^29); x is any u64.
inline __m256i ModMulAdd61(__m256i a, __m256i x, __m256i b) {
  const __m256i m61 = Set1(kP61);
  const __m256i m29 = Set1((1ULL << 29) - 1);
  const __m256i aH = _mm256_srli_epi64(a, 32);
  const __m256i xH = _mm256_srli_epi64(x, 32);
  const __m256i ll = _mm256_mul_epu32(a, x);    // aL·xL  < 2^64
  const __m256i lh = _mm256_mul_epu32(a, xH);   // aL·xH  < 2^64
  const __m256i hl = _mm256_mul_epu32(aH, x);   // aH·xL  < 2^61
  const __m256i hh = _mm256_mul_epu32(aH, xH);  // aH·xH  < 2^58
  // a·x + b = hh·2^64 + (lh + hl)·2^32 + ll + b. Reduce term-wise with
  // 2^64 ≡ 8 and t·2^32 = (t >> 29) · 2^61 + (t & m29) · 2^32
  //                     ≡ (t >> 29) + ((t & m29) << 32)   (mod p).
  // hh·8 fits u64 (hh < 2^61) but is NOT < 2^61, so it is split into
  // 61-bit limbs like everything else; then every summand is < 2^61
  // (nine of them, < 5·2^61 total): no u64 overflow.
  const __m256i hh8 = _mm256_slli_epi64(hh, 3);
  __m256i s = _mm256_add_epi64(b, _mm256_and_si256(hh8, m61));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(hh8, 61));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(lh, 29));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(lh, m29), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(hl, 29));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(hl, m29), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(ll, 61));
  s = _mm256_add_epi64(s, _mm256_and_si256(ll, m61));
  // Fold the carry limb, then two conditional subtracts (signed compares
  // are safe: everything is < 2^62).
  __m256i r = _mm256_add_epi64(_mm256_and_si256(s, m61),
                               _mm256_srli_epi64(s, 61));
  const __m256i pm1 = Set1(kP61 - 1);
  r = _mm256_sub_epi64(
      r, _mm256_and_si256(_mm256_cmpgt_epi64(r, pm1), m61));
  r = _mm256_sub_epi64(
      r, _mm256_and_si256(_mm256_cmpgt_epi64(r, pm1), m61));
  return r;
}

void MinhashSignatureAvx2(const uint64_t* shingles, size_t num_shingles,
                          const uint64_t* a, const uint64_t* b,
                          size_t num_hashes, uint64_t* sig) {
  constexpr uint64_t kEmpty = kP61;
  for (size_t i = 0; i < num_hashes; ++i) sig[i] = kEmpty;
  for (size_t tile = 0; tile < num_shingles; tile += kShingleTile) {
    const size_t tile_end =
        tile + kShingleTile < num_shingles ? tile + kShingleTile
                                           : num_shingles;
    size_t i = 0;
    for (; i + 4 <= num_hashes; i += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      __m256i m =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sig + i));
      for (size_t s = tile; s < tile_end; ++s) {
        const __m256i h = ModMulAdd61(va, Set1(shingles[s]), vb);
        m = _mm256_blendv_epi8(m, h, _mm256_cmpgt_epi64(m, h));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sig + i), m);
    }
    for (; i < num_hashes; ++i) {  // hash-count tail
      uint64_t m = sig[i];
      for (size_t s = tile; s < tile_end; ++s) {
        const uint64_t h = MersenneHash61(a[i], shingles[s], b[i]);
        m = h < m ? h : m;
      }
      sig[i] = m;
    }
  }
}

const KernelTable kAvx2Table = {
    Isa::kAvx2,
    MinhashSignatureAvx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() { return &kAvx2Table; }

}  // namespace sablock::arch

#else  // !defined(__AVX2__)

namespace sablock::arch {
const KernelTable* Avx2KernelTable() { return nullptr; }
}  // namespace sablock::arch

#endif
