#include "index/incremental_index.h"

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

}  // namespace sablock::index
