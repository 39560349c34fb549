#include "index/sorted_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
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
  for (const baselines::KeyComponent& comp : key_.components) {
    if (schema.IndexOf(comp.attribute) < 0) {
      return Status::Error("index attribute '" + comp.attribute +
                           "' is not in the schema");
    }
  }
  schema_ = schema;
  bound_ = true;
  return Status::Ok();
}

std::string SortedWindowIndex::KeyOf(
    std::span<const std::string_view> values) const {
  std::string key;
  for (const baselines::KeyComponent& comp : key_.components) {
    int idx = schema_.IndexOf(comp.attribute);
    std::string value =
        NormalizeForMatching(values[static_cast<size_t>(idx)]);
    baselines::AppendKeyComponent(comp, value, &key);
  }
  return key;
}

std::vector<data::RecordId> SortedWindowIndex::FlattenedOrder() const {
  // Key-ascending, id-ascending within equal keys: exactly the batch
  // technique's stable_sort of records in id order.
  std::vector<data::RecordId> order;
  order.reserve(live_);
  for (const auto& [key, ids] : buckets_) {
    order.insert(order.end(), ids.begin(), ids.end());
  }
  return order;
}

void SortedWindowIndex::Insert(data::RecordId id,
                               std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  SABLOCK_CHECK_MSG(record_keys_.count(id) == 0, "record id already live");
  std::string key = KeyOf(values);
  InsertSortedId(&buckets_[key], id);
  record_keys_.emplace(id, std::move(key));
  ++live_;
}

bool SortedWindowIndex::Remove(data::RecordId id) {
  auto it = record_keys_.find(id);
  if (it == record_keys_.end()) return false;
  auto bucket = buckets_.find(it->second);
  SABLOCK_CHECK(bucket != buckets_.end());
  EraseSortedId(&bucket->second, id);
  if (bucket->second.empty()) buckets_.erase(bucket);
  record_keys_.erase(it);
  --live_;
  return true;
}

std::vector<data::RecordId> SortedWindowIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  const size_t n = live_;
  if (n == 0) return {};
  const size_t w = static_cast<size_t>(window_size_);

  // The probe would be appended as the highest id, so the stable sort
  // places it after every live record with an equal key. With it
  // inserted the array has n + 1 entries; every window containing the
  // probe covers the live records within w - 1 positions of the
  // insertion point.
  if (w >= n + 1) {
    std::vector<data::RecordId> all = FlattenedOrder();
    std::sort(all.begin(), all.end());
    return all;
  }

  const std::string probe_key = KeyOf(values);
  size_t p = 0;  // probe position in the merged order
  for (auto it = buckets_.begin();
       it != buckets_.end() && it->first <= probe_key; ++it) {
    p += it->second.size();
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
