#include "index/sorted_index.h"

#include <algorithm>

#include "common/check.h"
#include "index/sorted_ids.h"

namespace sablock::index {

SortedWindowIndex::SortedWindowIndex(baselines::BlockingKeyDef key,
                                     int window_size)
    : key_(std::move(key)), window_size_(window_size) {
  SABLOCK_CHECK_MSG(window_size_ >= 2, "window size must be >= 2");
}

std::string SortedWindowIndex::name() const {
  return "SortedWindowIndex(w=" + std::to_string(window_size_) + ")";
}

Status SortedWindowIndex::Bind(const data::Schema& schema) {
  SABLOCK_CHECK_MSG(!bound_, "index already bound");
  Status status = ResolveAttributes(schema, baselines::KeyAttributes(key_),
                                    &positions_);
  bound_ = status.ok();
  return status;
}

std::vector<data::RecordId> SortedWindowIndex::FlattenedOrder() const {
  std::vector<data::RecordId> order;
  order.reserve(record_keys_.size());
  for (const auto& [key, ids] : buckets_) {
    order.insert(order.end(), ids.begin(), ids.end());
  }
  return order;
}

void SortedWindowIndex::Insert(data::RecordId id,
                               std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  SABLOCK_CHECK_MSG(record_keys_.count(id) == 0, "record id already live");
  std::string key = baselines::RowKey(key_, positions_, values);
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
  const size_t n = record_keys_.size();
  if (n == 0) return {};
  const size_t w = static_cast<size_t>(window_size_);

  // The probe would be appended as the highest id, so the stable sort
  // places it after every live record with an equal key. With it
  // inserted the array has n + 1 entries; every window containing the
  // probe covers the live records within w - 1 positions of the
  // insertion point (all of them when w > n, wherever the probe goes).
  size_t p = 0;  // probe position in the merged order
  if (w <= n) {
    const std::string probe_key = baselines::RowKey(key_, positions_, values);
    for (auto it = buckets_.begin();
         it != buckets_.end() && it->first <= probe_key; ++it) {
      p += it->second.size();
    }
  }

  std::vector<data::RecordId> order = FlattenedOrder();
  const size_t lo = p >= w - 1 ? p - (w - 1) : 0;
  const size_t hi = std::min(p + w - 2, n - 1);
  std::vector<data::RecordId> out(order.begin() + static_cast<ptrdiff_t>(lo),
                                  order.begin() + static_cast<ptrdiff_t>(hi) +
                                      1);
  std::sort(out.begin(), out.end());
  return out;
}

void SortedWindowIndex::EmitBlocks(core::BlockSink& sink) const {
  // Byte-identical to SortedNeighbourhoodArray::Run on the equivalent
  // dataset: same order, same window emitter.
  core::EmitWindows(FlattenedOrder(), static_cast<size_t>(window_size_),
                    sink);
}

}  // namespace sablock::index
