// SSE4.2 kernels: 2 lanes of 64-bit per vector (the 64-bit compare
// _mm_cmpgt_epi64 the min-reduction needs arrives with SSE4.2). Compiled
// with -msse4.2 on this translation unit only; identical results to the
// scalar reference by the same exact-arithmetic argument as the AVX2 TU.

#include "arch/kernels.h"

#if defined(__SSE4_2__)

#include <nmmintrin.h>

#include "common/hashing.h"

namespace sablock::arch {
namespace {

constexpr uint64_t kP61 = (1ULL << 61) - 1;
constexpr size_t kShingleTile = 4096;

inline __m128i Set1(uint64_t v) {
  return _mm_set1_epi64x(static_cast<long long>(v));
}

/// (a·x + b) mod 2^61-1 per lane, fully reduced; see the AVX2 TU for the
/// limb algebra (identical, just 2 lanes wide).
inline __m128i ModMulAdd61(__m128i a, __m128i x, __m128i b) {
  const __m128i m61 = Set1(kP61);
  const __m128i m29 = Set1((1ULL << 29) - 1);
  const __m128i aH = _mm_srli_epi64(a, 32);
  const __m128i xH = _mm_srli_epi64(x, 32);
  const __m128i ll = _mm_mul_epu32(a, x);
  const __m128i lh = _mm_mul_epu32(a, xH);
  const __m128i hl = _mm_mul_epu32(aH, x);
  const __m128i hh = _mm_mul_epu32(aH, xH);
  const __m128i hh8 = _mm_slli_epi64(hh, 3);
  __m128i s = _mm_add_epi64(b, _mm_and_si128(hh8, m61));
  s = _mm_add_epi64(s, _mm_srli_epi64(hh8, 61));
  s = _mm_add_epi64(s, _mm_srli_epi64(lh, 29));
  s = _mm_add_epi64(s, _mm_slli_epi64(_mm_and_si128(lh, m29), 32));
  s = _mm_add_epi64(s, _mm_srli_epi64(hl, 29));
  s = _mm_add_epi64(s, _mm_slli_epi64(_mm_and_si128(hl, m29), 32));
  s = _mm_add_epi64(s, _mm_srli_epi64(ll, 61));
  s = _mm_add_epi64(s, _mm_and_si128(ll, m61));
  __m128i r =
      _mm_add_epi64(_mm_and_si128(s, m61), _mm_srli_epi64(s, 61));
  const __m128i pm1 = Set1(kP61 - 1);
  r = _mm_sub_epi64(r, _mm_and_si128(_mm_cmpgt_epi64(r, pm1), m61));
  r = _mm_sub_epi64(r, _mm_and_si128(_mm_cmpgt_epi64(r, pm1), m61));
  return r;
}

void MinhashSignatureSse42(const uint64_t* shingles, size_t num_shingles,
                           const uint64_t* a, const uint64_t* b,
                           size_t num_hashes, uint64_t* sig) {
  constexpr uint64_t kEmpty = kP61;
  for (size_t i = 0; i < num_hashes; ++i) sig[i] = kEmpty;
  for (size_t tile = 0; tile < num_shingles; tile += kShingleTile) {
    const size_t tile_end =
        tile + kShingleTile < num_shingles ? tile + kShingleTile
                                           : num_shingles;
    size_t i = 0;
    for (; i + 2 <= num_hashes; i += 2) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
      __m128i m =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig + i));
      for (size_t s = tile; s < tile_end; ++s) {
        const __m128i h = ModMulAdd61(va, Set1(shingles[s]), vb);
        m = _mm_blendv_epi8(m, h, _mm_cmpgt_epi64(m, h));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(sig + i), m);
    }
    for (; i < num_hashes; ++i) {
      uint64_t m = sig[i];
      for (size_t s = tile; s < tile_end; ++s) {
        const uint64_t h = MersenneHash61(a[i], shingles[s], b[i]);
        m = h < m ? h : m;
      }
      sig[i] = m;
    }
  }
}

const KernelTable kSse42Table = {
    Isa::kSse42,
    MinhashSignatureSse42,
};

}  // namespace

const KernelTable* Sse42KernelTable() { return &kSse42Table; }

}  // namespace sablock::arch

#else  // !defined(__SSE4_2__)

namespace sablock::arch {
const KernelTable* Sse42KernelTable() { return nullptr; }
}  // namespace sablock::arch

#endif
