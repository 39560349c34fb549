// Cross-ISA parity for the src/arch/ kernel layer: every compiled
// dispatch level must produce byte-identical output to the scalar
// reference on the same inputs. This is the guarantee that lets the
// golden tests run once — SABLOCK_ISA can never change results, only
// speed. Levels the build or the machine lacks are skipped gracefully.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "arch/arch.h"
#include "arch/kernels.h"
#include "common/hashing.h"
#include "common/random.h"

namespace sablock::arch {
namespace {

/// The non-scalar tables compiled into this binary that the current
/// machine can actually execute.
std::vector<const KernelTable*> RunnableSimdTables() {
  std::vector<const KernelTable*> tables;
  for (Isa isa : {Isa::kSse42, Isa::kAvx2}) {
    if (IsaAvailable(isa)) tables.push_back(&KernelsFor(isa));
  }
  return tables;
}

class KernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tables_ = RunnableSimdTables();
    if (tables_.empty()) {
      GTEST_SKIP() << "no SIMD dispatch level compiled+runnable here; "
                      "scalar is trivially self-consistent";
    }
  }
  std::vector<const KernelTable*> tables_;
};

TEST_F(KernelParityTest, MinhashSignatureMatchesScalar) {
  const KernelTable& scalar = *ScalarKernelTable();
  Rng rng(41);
  // Hash counts around the 2/4-lane boundaries and shingle counts around
  // the 4096-shingle tile boundary.
  for (size_t num_hashes : {1u, 2u, 3u, 4u, 5u, 7u, 135u}) {
    for (size_t num_shingles : {0u, 1u, 5u, 63u, 4095u, 4097u}) {
      std::vector<uint64_t> shingles(num_shingles);
      for (uint64_t& s : shingles) s = Mix64(rng.UniformInt(0, 1 << 30));
      std::vector<uint64_t> a(num_hashes), b(num_hashes);
      for (size_t i = 0; i < num_hashes; ++i) {
        UniversalHash h =
            UniversalHash::FromSeed(17, static_cast<uint64_t>(i));
        a[i] = h.a();
        b[i] = h.b();
      }
      std::vector<uint64_t> want(num_hashes), got(num_hashes);
      scalar.minhash_signature(shingles.data(), shingles.size(), a.data(),
                               b.data(), num_hashes, want.data());
      for (const KernelTable* t : tables_) {
        t->minhash_signature(shingles.data(), shingles.size(), a.data(),
                             b.data(), num_hashes, got.data());
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 num_hashes * sizeof(uint64_t)))
            << IsaName(t->isa) << " h=" << num_hashes
            << " s=" << num_shingles;
      }
    }
  }
}

// Dispatch policy, independent of what this machine supports.
TEST(IsaResolutionTest, OverrideParsingAndClamping) {
  Isa parsed;
  EXPECT_TRUE(ParseIsaName("scalar", &parsed));
  EXPECT_EQ(parsed, Isa::kScalar);
  EXPECT_TRUE(ParseIsaName("sse42", &parsed));
  EXPECT_EQ(parsed, Isa::kSse42);
  EXPECT_TRUE(ParseIsaName("avx2", &parsed));
  EXPECT_EQ(parsed, Isa::kAvx2);
  EXPECT_FALSE(ParseIsaName("avx512", &parsed));

  // No override -> best available; unknown string -> best available;
  // scalar is always honored (it is always available).
  EXPECT_EQ(ResolveIsa(nullptr), BestAvailableIsa());
  EXPECT_EQ(ResolveIsa(""), BestAvailableIsa());
  EXPECT_EQ(ResolveIsa("avx512"), BestAvailableIsa());
  EXPECT_EQ(ResolveIsa("scalar"), Isa::kScalar);
  // A request the machine can satisfy is honored; one it cannot is
  // clamped to something runnable, never escalated past the request.
  for (const char* name : {"sse42", "avx2"}) {
    Isa requested;
    ASSERT_TRUE(ParseIsaName(name, &requested));
    Isa resolved = ResolveIsa(name);
    EXPECT_TRUE(IsaAvailable(resolved));
    EXPECT_LE(static_cast<int>(resolved), static_cast<int>(requested));
    if (IsaAvailable(requested)) {
      EXPECT_EQ(resolved, requested);
    }
  }
}

TEST(IsaResolutionTest, ScalarAlwaysCompiledAndActiveIsRunnable) {
  EXPECT_TRUE(IsaCompiled(Isa::kScalar));
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  EXPECT_TRUE(IsaAvailable(ActiveIsa()));
  EXPECT_EQ(ActiveKernels().isa, ActiveIsa());
  // Uncompiled levels fall back to the scalar table rather than crash.
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    const KernelTable& t = KernelsFor(isa);
    EXPECT_TRUE(t.isa == isa || t.isa == Isa::kScalar);
  }
}

}  // namespace
}  // namespace sablock::arch
