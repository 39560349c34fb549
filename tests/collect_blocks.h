#ifndef SABLOCK_TESTS_COLLECT_BLOCKS_H_
#define SABLOCK_TESTS_COLLECT_BLOCKS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// Canonical serialization of a block multiset: every block's ids sorted,
/// blocks sorted lexicographically, rendered one block per line. Two
/// collections with equal canonical bytes contain exactly the same
/// blocks — the representation the index/batch parity tests compare.
inline std::string CanonicalBlockBytes(const core::BlockCollection& blocks) {
  std::vector<core::Block> canon = blocks.blocks();
  for (core::Block& block : canon) {
    std::sort(block.begin(), block.end());
  }
  std::sort(canon.begin(), canon.end());
  std::string bytes;
  for (const core::Block& block : canon) {
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
