#ifndef SABLOCK_STORE_CODEC_H_
#define SABLOCK_STORE_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "features/rows.h"
#include "store/bytes.h"

namespace sablock::store {

// Self-framing sub-blocks shared by the snapshot writer and loader.
// Each block carries its own element count, and every reader validates
// that count against the bytes actually available before allocating,
// so a corrupt count can neither over-allocate nor read out of bounds.

/// u64 array: varint count, then either raw host-order values or —
/// compressed — varint zigzag-deltas (wrapping), which shrink sorted
/// sequences (value offsets, token postings, shingle hash sets) to a
/// byte or two per element. `values` is any range of unsigned integers.
template <typename Ints>
void WriteU64Block(ByteWriter& writer, const Ints& values, bool compressed) {
  writer.PutVarint(std::size(values));
  uint64_t prev = 0;
  for (const uint64_t v : values) {
    if (compressed) {
      writer.PutVarint(ZigzagEncode(static_cast<int64_t>(v - prev)));
      prev = v;
    } else {
      writer.PutU64(v);
    }
  }
}
Status ReadU64Block(ByteReader& reader, bool compressed,
                    std::vector<uint64_t>* out);

/// String table: varint count, then either raw length-prefixed strings
/// or — compressed — dictionary front-coding (shared-prefix length with
/// the previous string + suffix), which shrinks sorted-ish text tables.
/// `strings` is any range of strings or string views. The reader decodes
/// straight into one row per string, with no string allocated per entry;
/// the vector form copies those rows out, for the short tables (names,
/// vocabularies) kept as strings.
template <typename Strings>
void WriteStringBlock(ByteWriter& writer, const Strings& strings,
                      bool compressed) {
  writer.PutVarint(std::size(strings));
  std::string_view prev;
  for (const std::string_view s : strings) {
    if (!compressed) {
      writer.PutString(s);
      continue;
    }
    const size_t limit = std::min(prev.size(), s.size());
    size_t shared = 0;
    while (shared < limit && prev[shared] == s[shared]) ++shared;
    writer.PutVarint(shared);
    writer.PutString(s.substr(shared));
    prev = s;
  }
}
Status ReadStringBlock(ByteReader& reader, bool compressed,
                       features::Rows<char>* out);
Status ReadStringBlock(ByteReader& reader, bool compressed,
                       std::vector<std::string>* out);

}  // namespace sablock::store

#endif  // SABLOCK_STORE_CODEC_H_
