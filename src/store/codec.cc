#include "store/codec.h"

#include <algorithm>
#include <utility>

namespace sablock::store {

Status ReadU64Block(ByteReader& reader, bool compressed,
                    std::vector<uint64_t>* out) {
  uint64_t count;
  if (!reader.ReadVarint(&count)) {
    return Status::Error("u64 block: truncated count");
  }
  // Every element costs at least one byte (varint) or eight (raw), so a
  // count the remaining bytes cannot possibly hold is corruption — catch
  // it before the allocation, not inside it.
  const uint64_t min_bytes_per = compressed ? 1 : 8;
  if (count > reader.remaining() / min_bytes_per) {
    return Status::Error("u64 block: count exceeds available bytes");
  }
  out->clear();
  out->reserve(count);
  if (!compressed) {
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t v;
      if (!reader.ReadU64(&v)) {
        return Status::Error("u64 block: truncated values");
      }
      out->push_back(v);
    }
    return Status::Ok();
  }
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta;
    if (!reader.ReadVarint(&delta)) {
      return Status::Error("u64 block: truncated varint delta");
    }
    prev += static_cast<uint64_t>(ZigzagDecode(delta));
    out->push_back(prev);
  }
  return Status::Ok();
}

Status ReadStringBlock(ByteReader& reader, bool compressed,
                       features::Rows<char>* out) {
  uint64_t count;
  if (!reader.ReadVarint(&count)) {
    return Status::Error("string block: truncated count");
  }
  // Raw strings cost >= 1 byte each (the length varint); front-coded
  // strings cost >= 2 (prefix varint + length varint).
  const uint64_t min_bytes_per = compressed ? 2 : 1;
  if (count > reader.remaining() / min_bytes_per) {
    return Status::Error("string block: count exceeds available bytes");
  }
  features::Rows<char> rows;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t shared = 0;
    std::string_view suffix;
    if (!compressed) {
      if (!reader.ReadStringView(&suffix)) {
        return Status::Error("string block: truncated string");
      }
    } else if (!reader.ReadVarint(&shared) ||
               !reader.ReadStringView(&suffix)) {
      return Status::Error("string block: truncated front-coded entry");
    }
    // A front-coded entry starts with the previous row's first `shared`
    // chars, copied by position (appending may move the array).
    const size_t prev_begin = rows.offsets()[i == 0 ? 0 : i - 1];
    const size_t prev_end = rows.offsets()[i];
    if (shared > prev_end - prev_begin) {
      return Status::Error("string block: front-coding prefix out of range");
    }
    rows.AppendRow([&](std::vector<char>& chars) {
      chars.resize(prev_end + shared);
      std::copy_n(chars.data() + prev_begin, shared, chars.data() + prev_end);
      chars.insert(chars.end(), suffix.begin(), suffix.end());
    });
  }
  *out = std::move(rows);
  return Status::Ok();
}

Status ReadStringBlock(ByteReader& reader, bool compressed,
                       std::vector<std::string>* out) {
  features::Rows<char> rows;
  Status s = ReadStringBlock(reader, compressed, &rows);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out->emplace_back(rows.Row(i));
  return Status::Ok();
}

}  // namespace sablock::store
