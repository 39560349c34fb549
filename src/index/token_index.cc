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
  Status status = ResolveAttributes(schema, attributes_, &positions_);
  bound_ = status.ok();
  return status;
}

void TokenPostingsIndex::Insert(data::RecordId id,
                                std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  const size_t row = tokens_.size();
  const bool fresh = row_of_.emplace(id, row).second;
  SABLOCK_CHECK_MSG(fresh, "record id already live");
  const std::string text = data::BlockingText(values, positions_);
  const std::string_view view = text;
  tokens_.Append({&view, 1});
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
  const std::string text = data::BlockingText(values, positions_);
  const std::string_view view = text;
  std::vector<features::TokenId> known;
  tokens_.Lookup({&view, 1}, &known);
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
  core::BlockCollection kept;
  for (const std::vector<data::RecordId>& ids : postings_) {
    if (ids.size() >= 2) kept.Add(ids);
  }
  kept.SortBlocks();
  kept.Drain(sink);
}

}  // namespace sablock::index
