#ifndef SABLOCK_TESTS_SPLIT_LOAD_H_
#define SABLOCK_TESTS_SPLIT_LOAD_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "data/record.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"

namespace sablock {

/// The index `spec` names, bound to `dataset`'s schema, after Insert of
/// records [0, bulk_from) one by one and a BulkLoad of the rest: bulk_from
/// == dataset.size() is the all-Insert load, 0 the all-BulkLoad one.
inline std::unique_ptr<index::IncrementalIndex> SplitLoad(
    const std::string& spec, const data::Dataset& dataset, size_t bulk_from) {
  std::unique_ptr<index::IncrementalIndex> loaded;
  Status s = index::IndexRegistry::Global().Create(spec, &loaded);
  EXPECT_TRUE(s.ok()) << spec << ": " << s.message();
  s = loaded->Bind(dataset.schema());
  EXPECT_TRUE(s.ok()) << spec << ": " << s.message();
  for (data::RecordId id = 0; id < bulk_from; ++id) {
    loaded->Insert(id, dataset.Values(id));
  }
  loaded->BulkLoad(static_cast<data::RecordId>(bulk_from),
                   dataset.Slice(bulk_from, dataset.size()));
  return loaded;
}

}  // namespace sablock

#endif  // SABLOCK_TESTS_SPLIT_LOAD_H_
