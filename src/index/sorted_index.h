#ifndef SABLOCK_INDEX_SORTED_INDEX_H_
#define SABLOCK_INDEX_SORTED_INDEX_H_

#include <map>
#include <string>
#include <vector>

#include "index/incremental_index.h"

namespace sablock::index {

/// Incremental sorted-neighbourhood index: records live in a key-ordered
/// structure (ids ascending within equal keys, matching the batch stable
/// sort), keyed by baselines::RowKey over its attributes, and a window of
/// `window_size` positions defines the blocks. EmitBlocks reproduces
/// baselines::SortedNeighbourhoodArray byte-identically; Query returns the
/// records a probe would share a window with if it were inserted next.
class SortedWindowIndex : public IncrementalIndex {
 public:
  SortedWindowIndex(std::vector<std::string> attributes, int window_size);

  std::string name() const override;
  Status Bind(const data::Schema& schema) override;
  void Insert(data::RecordId id,
              std::span<const std::string_view> values) override;
  bool Remove(data::RecordId id) override;
  std::vector<data::RecordId> Query(
      std::span<const std::string_view> values) const override;
  void EmitBlocks(core::BlockSink& sink) const override;
  size_t size() const override { return record_keys_.size(); }

 private:
  std::vector<std::string> attributes_;
  int window_size_;
  std::vector<int> positions_;  // the key attributes' positions, set by Bind
  bool bound_ = false;

  std::map<std::string, std::vector<data::RecordId>> buckets_;
  std::map<data::RecordId, std::string> record_keys_;
};

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_SORTED_INDEX_H_
