#ifndef SABLOCK_ARCH_KERNELS_H_
#define SABLOCK_ARCH_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "arch/arch.h"

namespace sablock::arch {

/// Batched kernels for the blocking hot paths, one table per ISA level.
/// Every implementation is REQUIRED to be byte-identical to the scalar
/// reference for all inputs (kernel_parity_test enforces this; the
/// technique goldens depend on it), so dispatch can never change
/// results — only how fast they arrive.
struct KernelTable {
  Isa isa;

  /// Minhash signature of a shingle set: for each hash function i,
  /// sig[i] = min over shingles x of ((a[i]·x + b[i]) mod 2^61-1), or
  /// the empty sentinel 2^61-1 when num_shingles == 0. a[i] must be in
  /// [1, 2^61-1) and b[i] in [0, 2^61-1) (UniversalHash parameters).
  /// Blocked hash-major loop: shingle tiles stay L1-resident while the
  /// hash sweep runs, and each sig[i] is accumulated in a register.
  void (*minhash_signature)(const uint64_t* shingles, size_t num_shingles,
                            const uint64_t* a, const uint64_t* b,
                            size_t num_hashes, uint64_t* sig);
};

/// The table for one ISA level. Levels that are not compiled in resolve
/// to the scalar table (results are identical by contract), so callers
/// may pass any level. Use IsaAvailable() to know whether a level's own
/// instructions would actually run.
const KernelTable& KernelsFor(Isa isa);

/// The table for ActiveIsa() — what production call sites use.
const KernelTable& ActiveKernels();

// Per-TU table accessors, linked unconditionally; SIMD TUs return
// nullptr when their ISA was not compiled in. Internal to the dispatch
// layer and the parity test.
const KernelTable* ScalarKernelTable();
const KernelTable* Sse42KernelTable();
const KernelTable* Avx2KernelTable();

}  // namespace sablock::arch

#endif  // SABLOCK_ARCH_KERNELS_H_
