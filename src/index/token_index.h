#ifndef SABLOCK_INDEX_TOKEN_INDEX_H_
#define SABLOCK_INDEX_TOKEN_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "features/token_column.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// Incremental token-blocking postings, the index-side counterpart of
/// baselines::TokenBlockingTechnique: EmitBlocks reproduces its output
/// byte-identically (postings with >= 2 live records, in canonical
/// content order). Insert appends the record's data::BlockingText to a
/// features::TokenColumn as one value, as FeatureStore::Tokens appends a
/// text row; a removed record keeps its row. Postings are by token id.
class TokenPostingsIndex : public IncrementalIndex {
 public:
  explicit TokenPostingsIndex(std::vector<std::string> attributes);

  std::string name() const override;
  Status Bind(const data::Schema& schema) override;
  void Insert(data::RecordId id,
              std::span<const std::string_view> values) override;
  bool Remove(data::RecordId id) override;
  std::vector<data::RecordId> Query(
      std::span<const std::string_view> values) const override;
  void EmitBlocks(core::BlockSink& sink) const override;
  size_t size() const override { return row_of_.size(); }

 private:
  std::vector<std::string> attributes_;
  std::vector<int> positions_;  // the attributes' positions, set by Bind
  bool bound_ = false;

  features::TokenColumn tokens_;  // one row per Insert
  // postings_[t]: the live ids holding token t, ascending.
  std::vector<std::vector<data::RecordId>> postings_;
  std::unordered_map<data::RecordId, size_t> row_of_;  // live id -> row
};

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_TOKEN_INDEX_H_
