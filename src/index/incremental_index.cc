#include "index/incremental_index.h"

#include <algorithm>

#include "common/check.h"

namespace sablock::index {

Status ResolveAttributes(const data::Schema& schema,
                         std::span<const std::string> attributes,
                         std::vector<int>* positions) {
  *positions = schema.Positions(attributes);
  for (size_t i = 0; i < attributes.size(); ++i) {
    if ((*positions)[i] < 0) {
      return Status::Error("index attribute '" + attributes[i] +
                           "' is not in the schema");
    }
  }
  return Status::Ok();
}

void IncrementalIndex::BulkLoad(data::RecordId first,
                                const data::Dataset& dataset) {
  for (data::RecordId i = 0; i < dataset.size(); ++i) {
    Insert(first + i, dataset.Values(i));
  }
}

void LoadDataset(IncrementalIndex& index, const data::Dataset& dataset) {
  Status status = index.Bind(dataset.schema());
  SABLOCK_CHECK_MSG(status.ok(), status.message().c_str());
  index.BulkLoad(0, dataset);
}

std::string CanonicalBlockBytes(const core::BlockCollection& blocks) {
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

core::BlockCollection CollectBlocks(const IncrementalIndex& index) {
  core::BlockCollection out;
  index.EmitBlocks(out);
  return out;
}

}  // namespace sablock::index
