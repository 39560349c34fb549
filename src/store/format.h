#ifndef SABLOCK_STORE_FORMAT_H_
#define SABLOCK_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace sablock::store {

// On-disk layout of a `.sab` snapshot (all offsets in bytes):
//
//   [ header   | 48 bytes, fixed                                ]
//   [ table    | section_count * 40 bytes                       ]
//   [ pad to 8 ]
//   [ section payloads, each starting on an 8-byte boundary     ]
//
// Header fields, in order:
//   magic           char[8]  "SABSNAP1"
//   endian_marker   u32      0x01020304 as written by the producer
//   version         u32      kFormatVersion
//   record_count    u64
//   attr_count      u32
//   section_count   u32
//   file_bytes      u64      total file size (truncation check)
//   table_checksum  u64      Checksum64 of the encoded section table
//
// Section table entry fields, in order:
//   id, encoding    u32, u32
//   offset          u64      absolute, 8-aligned
//   stored_bytes    u64      payload bytes on disk
//   item_count      u64      logical element count (kind-specific)
//   checksum        u64      Checksum64 of the stored payload
//
// Fixed-width fields are written in the producer's byte order; the
// endian marker lets a consumer with the opposite byte order refuse the
// file with a clean diagnostic instead of misreading it. Varints are
// byte-order independent.
//
// Version-bump policy: any change to the header, the table entry
// layout, a section payload layout, or an encoding's bit-level meaning
// bumps kFormatVersion; loaders support exactly one version and reject
// others loudly (no silent best-effort reads). Purely *additive*
// section ids do not need a bump — loaders skip unknown section ids.

inline constexpr size_t kMagicBytes = 8;
inline constexpr char kMagic[kMagicBytes + 1] = "SABSNAP1";
inline constexpr uint32_t kEndianMarker = 0x01020304u;
inline constexpr uint32_t kFormatVersion = 1;

inline constexpr size_t kHeaderBytes = 48;
inline constexpr size_t kSectionEntryBytes = 40;

/// Section payload kinds. kSchema..kValueOffsets are the dataset core
/// (each required exactly once); the column sections are optional and
/// repeatable (one per cached FeatureStore column). kBandColumn is
/// additive: files without it load as before, and their lsh and sa-lsh
/// runs build the band column from the text once.
enum class SectionId : uint32_t {
  kSchema = 1,           // attribute names
  kEntities = 2,         // ground-truth entity ids, one per record
  kArena = 3,            // all attribute value bytes, row-major
  kValueOffsets = 4,     // record_count*attr_count+1 offsets into kArena
  kTextColumn = 5,       // normalized blocking text per record
  kTokenColumn = 6,      // token vocabulary + per-record token-id rows
  kShingleColumn = 7,    // per-record sorted q-gram hash sets
  kSignatureColumn = 8,  // flat minhash matrix (8-aligned, mmap-aliased)
  kBandColumn = 9,       // l band keys per record, then the empty-record
                         // marks (8-aligned, mmap-aliased)
};

/// Per-section encoding. What "compressed" means is kind-specific:
/// varint zigzag-delta for u64 arrays (entities, value offsets, token
/// postings, shingle hashes) and dictionary front-coding for string
/// tables (normalized text, token strings). Signature and band columns
/// are always raw so the loader can alias them straight out of the
/// mapping.
enum class SectionEncoding : uint32_t {
  kRaw = 0,
  kCompressed = 1,
};

/// One decoded section-table entry (see the layout comment above).
struct SectionEntry {
  uint32_t id = 0;
  uint32_t encoding = 0;
  uint64_t offset = 0;
  uint64_t stored_bytes = 0;
  uint64_t item_count = 0;
  uint64_t checksum = 0;
};

/// Word-wise 64-bit mixing checksum over a byte range — the snapshot's
/// integrity checksum (corruption detection, not authentication). Four
/// independent multiply-xor lanes consume 32 bytes per step so the
/// 64-bit multiply latency pipelines instead of serializing (roughly
/// 10x the throughput of byte-wise FNV-1a, which priced the default
/// full-file verify pass at more than the rest of the load combined);
/// a single lane drains the remaining 8-byte words, trailing bytes
/// fold in byte-wise, and a splitmix64 finalizer avalanches the
/// result. Every step is a bijection (xor then odd multiply), so a
/// corruption confined to one lane can never cancel itself out.
inline uint64_t Checksum64(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr uint64_t kM0 = 0x9e3779b185ebca87ULL;
  constexpr uint64_t kM1 = 0xc2b2ae3d27d4eb4fULL;
  constexpr uint64_t kM2 = 0x165667b19e3779f9ULL;
  constexpr uint64_t kM3 = 0x27d4eb2f165667c5ULL;
  auto word = [p](size_t at) {
    uint64_t w;
    __builtin_memcpy(&w, p + at, sizeof w);
    return w;
  };
  uint64_t h = 0x2b992ddfa23249d6ULL ^ (uint64_t{n} * kM0);
  size_t i = 0;
  if (n >= 32) {
    uint64_t h0 = h, h1 = h ^ kM1, h2 = h ^ kM2, h3 = h ^ kM3;
    for (; i + 32 <= n; i += 32) {
      h0 = (h0 ^ word(i)) * kM0;
      h1 = (h1 ^ word(i + 8)) * kM1;
      h2 = (h2 ^ word(i + 16)) * kM2;
      h3 = (h3 ^ word(i + 24)) * kM3;
    }
    h = ((((h0 ^ h1) * kM1 ^ h2) * kM2) ^ h3) * kM3;
  }
  for (; i + 8 <= n; i += 8) h = (h ^ word(i)) * kM0;
  for (; i < n; ++i) h = (h ^ p[i]) * kM1;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace sablock::store

#endif  // SABLOCK_STORE_FORMAT_H_
