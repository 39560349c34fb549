#ifndef SABLOCK_TESTS_COLLECT_BLOCKS_H_
#define SABLOCK_TESTS_COLLECT_BLOCKS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "data/record.h"
#include "index/incremental_index.h"

namespace sablock {

/// Owned record ids: how a test spells a block it builds or expects
/// (core::Block only borrows them).
using Ids = std::vector<data::RecordId>;

/// The collection's blocks in order, each copied out as owned ids — the
/// form tests compare and sort.
inline std::vector<Ids> AsVectors(const core::BlockCollection& blocks) {
  std::vector<Ids> out;
  out.reserve(blocks.NumBlocks());
  for (core::Block block : blocks.blocks()) {
    out.emplace_back(block.begin(), block.end());
  }
  return out;
}

}  // namespace sablock

namespace sablock::index {

/// Canonical serialization of a block multiset: every block's ids sorted,
/// blocks sorted lexicographically, rendered one block per line. Two
/// collections with equal canonical bytes contain exactly the same
/// blocks — the representation the index/batch parity tests compare.
inline std::string CanonicalBlockBytes(const core::BlockCollection& blocks) {
  std::vector<Ids> canon = AsVectors(blocks);
  for (Ids& block : canon) {
    std::sort(block.begin(), block.end());
  }
  std::sort(canon.begin(), canon.end());
  std::string bytes;
  for (const Ids& block : canon) {
    for (size_t i = 0; i < block.size(); ++i) {
      if (i > 0) bytes.push_back(' ');
      bytes += std::to_string(block[i]);
    }
    bytes.push_back('\n');
  }
  return bytes;
}

/// Collects EmitBlocks output into a BlockCollection.
inline core::BlockCollection CollectBlocks(const IncrementalIndex& index) {
  core::BlockCollection out;
  index.EmitBlocks(out);
  return out;
}

}  // namespace sablock::index

#endif  // SABLOCK_TESTS_COLLECT_BLOCKS_H_
