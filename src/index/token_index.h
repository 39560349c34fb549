#ifndef SABLOCK_INDEX_TOKEN_INDEX_H_
#define SABLOCK_INDEX_TOKEN_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "features/token_column.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// Incremental token-blocking postings: one posting list per distinct
/// normalized whitespace token of the blocking attributes. The index-side
/// counterpart of baselines::TokenBlockingTechnique — EmitBlocks
/// reproduces its output byte-identically (postings with >= 2 live
/// records, emitted in canonical content order). Tokens are interned by
/// a features::TokenColumn, one row per Insert (a removed record keeps
/// its row), and postings are indexed by token id.
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
  /// The bound attributes' values of a schema-aligned row.
  std::vector<std::string_view> Selected(
      std::span<const std::string_view> values) const;

  std::vector<std::string> attributes_;
  std::vector<int> attr_index_;  // schema positions, set by Bind
  bool bound_ = false;

  features::TokenColumn tokens_;  // one row per Insert
  // postings_[t]: the live ids holding token t, ascending.
  std::vector<std::vector<data::RecordId>> postings_;
  std::unordered_map<data::RecordId, size_t> row_of_;  // live id -> row
};

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_TOKEN_INDEX_H_
