#ifndef SABLOCK_CORE_BLOCK_UTILS_H_
#define SABLOCK_CORE_BLOCK_UTILS_H_

#include <cstddef>

#include "core/blocking.h"

namespace sablock::core {

/// Transitive closure: merges blocks that share records and returns the
/// connected components (over `num_records` record ids) as disjoint
/// blocks. Components of size 1 are dropped. Multi-pass sorted
/// neighbourhood (`sor-mp`) merges its passes' windows with it.
BlockCollection ConnectedComponents(const BlockCollection& blocks,
                                    size_t num_records);

}  // namespace sablock::core

#endif  // SABLOCK_CORE_BLOCK_UTILS_H_
