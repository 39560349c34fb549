#include "index/sorted_index.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "baselines/blocking_key.h"
#include "common/check.h"
#include "index/sorted_ids.h"

namespace sablock::index {

SortedWindowIndex::SortedWindowIndex(std::vector<std::string> attributes,
                                     int window_size)
    : attributes_(std::move(attributes)), window_size_(window_size) {
  SABLOCK_CHECK_MSG(window_size_ >= 2, "window size must be >= 2");
}

std::string SortedWindowIndex::name() const {
  return "SortedWindowIndex(w=" + std::to_string(window_size_) + ")";
}

Status SortedWindowIndex::Bind(const data::Schema& schema) {
  SABLOCK_CHECK_MSG(!bound_, "index already bound");
  Status status = ResolveAttributes(schema, attributes_, &positions_);
  bound_ = status.ok();
  return status;
}

void SortedWindowIndex::Insert(data::RecordId id,
                               std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  SABLOCK_CHECK_MSG(record_keys_.count(id) == 0, "record id already live");
  std::string key = baselines::RowKey(positions_, values);
  InsertSortedId(&buckets_[key], id);
  record_keys_.emplace(id, std::move(key));
}

bool SortedWindowIndex::Remove(data::RecordId id) {
  auto it = record_keys_.find(id);
  if (it == record_keys_.end()) return false;
  auto bucket = buckets_.find(it->second);
  SABLOCK_CHECK(bucket != buckets_.end());
  EraseSortedId(&bucket->second, id);
  if (bucket->second.empty()) buckets_.erase(bucket);
  record_keys_.erase(it);
  return true;
}

std::vector<data::RecordId> SortedWindowIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  const size_t w = static_cast<size_t>(window_size_);
  std::vector<data::RecordId> out;
  if (w > record_keys_.size()) {
    // With the probe the order has at most w entries: one window holds
    // them all, so every live record is a candidate (ids ascending).
    for (const auto& entry : record_keys_) out.push_back(entry.first);
    return out;
  }
  // The probe would be appended as the highest id, so the stable sort
  // places it after every live record with an equal key, where `next`
  // starts. Every window holding it covers the w - 1 live records on each
  // side of that point, across bucket boundaries.
  const auto next =
      buckets_.upper_bound(baselines::RowKey(positions_, values));
  size_t want = w - 1;
  for (auto it = std::make_reverse_iterator(next);
       it != buckets_.rend() && want > 0; ++it) {
    const size_t take = std::min(want, it->second.size());
    out.insert(out.end(), it->second.end() - static_cast<ptrdiff_t>(take),
               it->second.end());
    want -= take;
  }
  want = w - 1;
  for (auto it = next; it != buckets_.end() && want > 0; ++it) {
    const size_t take = std::min(want, it->second.size());
    out.insert(out.end(), it->second.begin(),
               it->second.begin() + static_cast<ptrdiff_t>(take));
    want -= take;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SortedWindowIndex::EmitBlocks(core::BlockSink& sink) const {
  // Byte-identical to SortedNeighbourhoodArray::Run on the equivalent
  // dataset: the same order (key-ascending, ids ascending within a key,
  // the batch stable_sort result) through the same window emitter.
  std::vector<data::RecordId> order;
  order.reserve(record_keys_.size());
  for (const auto& [key, ids] : buckets_) {
    order.insert(order.end(), ids.begin(), ids.end());
  }
  core::EmitWindows(order, static_cast<size_t>(window_size_), sink);
}

}  // namespace sablock::index
