// Scalar reference kernels — the semantics every SIMD level must match
// bit-for-bit. Also where the cache-conscious restructuring lives: the
// minhash kernel is the blocked hash-major loop (shingle tiles stay
// L1-resident across the hash sweep, each signature slot accumulates in
// a register instead of being re-loaded per shingle).

#include <cstddef>
#include <cstdint>

#include "arch/kernels.h"
#include "common/hashing.h"

namespace sablock::arch {
namespace {

// Shingle-tile size for the hash-major minhash loop: 4096 × 8 bytes =
// 32 KiB, one L1d worth of shingles re-swept by every hash function
// before the next tile streams in.
constexpr size_t kShingleTile = 4096;

void MinhashSignatureScalar(const uint64_t* shingles, size_t num_shingles,
                            const uint64_t* a, const uint64_t* b,
                            size_t num_hashes, uint64_t* sig) {
  constexpr uint64_t kEmpty = UniversalHash::kPrime;
  for (size_t i = 0; i < num_hashes; ++i) sig[i] = kEmpty;
  for (size_t tile = 0; tile < num_shingles; tile += kShingleTile) {
    const size_t tile_end =
        tile + kShingleTile < num_shingles ? tile + kShingleTile
                                           : num_shingles;
    for (size_t i = 0; i < num_hashes; ++i) {
      const uint64_t ai = a[i];
      const uint64_t bi = b[i];
      uint64_t m = sig[i];
      for (size_t s = tile; s < tile_end; ++s) {
        const uint64_t h = MersenneHash61(ai, shingles[s], bi);
        m = h < m ? h : m;
      }
      sig[i] = m;
    }
  }
}

const KernelTable kScalarTable = {
    Isa::kScalar,
    MinhashSignatureScalar,
};

}  // namespace

const KernelTable* ScalarKernelTable() { return &kScalarTable; }

}  // namespace sablock::arch
