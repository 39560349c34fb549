#include "index/token_index.h"

#include <algorithm>

#include "common/check.h"
#include "index/sorted_ids.h"

namespace sablock::index {

TokenPostingsIndex::TokenPostingsIndex(std::vector<std::string> attributes)
    : attributes_(std::move(attributes)) {}

std::string TokenPostingsIndex::name() const { return "TokenIndex"; }

Status TokenPostingsIndex::Bind(const data::Schema& schema) {
  SABLOCK_CHECK_MSG(!bound_, "index already bound");
  attr_index_.clear();
  for (const std::string& attr : attributes_) {
    int idx = schema.IndexOf(attr);
    if (idx < 0) {
      return Status::Error("index attribute '" + attr +
                           "' is not in the schema");
    }
    attr_index_.push_back(idx);
  }
  bound_ = true;
  return Status::Ok();
}

std::vector<std::string_view> TokenPostingsIndex::Selected(
    std::span<const std::string_view> values) const {
  // Token by token the same as Dataset::ConcatenatedValues over them, the
  // batch technique's text: no token spans the joining separator.
  std::vector<std::string_view> selected;
  selected.reserve(attr_index_.size());
  for (int idx : attr_index_) {
    selected.push_back(values[static_cast<size_t>(idx)]);
  }
  return selected;
}

void TokenPostingsIndex::Insert(data::RecordId id,
                                std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  const size_t row = tokens_.size();
  const bool fresh = row_of_.emplace(id, row).second;
  SABLOCK_CHECK_MSG(fresh, "record id already live");
  tokens_.Append(Selected(values));
  postings_.resize(tokens_.token_limit());
  for (features::TokenId token : tokens_.Row(row)) {
    InsertSortedId(&postings_[token], id);
  }
}

bool TokenPostingsIndex::Remove(data::RecordId id) {
  auto it = row_of_.find(id);
  if (it == row_of_.end()) return false;
  for (features::TokenId token : tokens_.Row(it->second)) {
    const bool erased = EraseSortedId(&postings_[token], id);
    SABLOCK_CHECK(erased);
  }
  row_of_.erase(it);
  return true;
}

std::vector<data::RecordId> TokenPostingsIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  std::vector<features::TokenId> known;
  tokens_.Lookup(Selected(values), &known);
  std::vector<data::RecordId> out;
  for (features::TokenId token : known) {
    out.insert(out.end(), postings_[token].begin(), postings_[token].end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void TokenPostingsIndex::EmitBlocks(core::BlockSink& sink) const {
  // Identical to the batch technique's emission: postings with >= 2
  // records, in canonical content order.
  std::vector<core::Block> kept;
  for (const std::vector<data::RecordId>& ids : postings_) {
    if (ids.size() >= 2) kept.push_back(ids);
  }
  core::EmitSorted(std::move(kept), sink);
}

}  // namespace sablock::index
