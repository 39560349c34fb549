#ifndef SABLOCK_FEATURES_TOKEN_COLUMN_H_
#define SABLOCK_FEATURES_TOKEN_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "common/status.h"
#include "features/rows.h"

namespace sablock::features {

/// Dense id of one token in a TokenColumn's vocabulary.
using TokenId = uint32_t;

/// The one token interner: an append-only column of token-id rows, used
/// by the FeatureStore's token columns (token blocking), the candidate
/// service's scoring column and the incremental token index. Row r
/// holds the sorted distinct ids of the tokens of
/// SplitWords(NormalizeForMatching(v)) over the values v appended as r,
/// kept in the feature columns' one row layout (Rows) — 4 bytes per
/// distinct token plus 8 per row, no allocation per row.
///
/// Id rule: a row's tokens already in the dictionary keep their ids, and
/// the row's distinct new tokens take the next ids in ascending string
/// order. So ids depend only on the rows appended, in order, and a
/// column's vocabulary is exactly the tokens of its own rows.
///
/// There is one dictionary, looked up by view (a probe is tokenized and
/// resolved without building a string), and one copy of each token: the
/// id-ordered vocabulary views the dictionary's keys, so the column is
/// move-only. Not synchronized: FeatureStore publishes a column only
/// after its build, and CandidateService appends under its exclusive
/// lock and reads under its shared one.
class TokenColumn {
 public:
  TokenColumn() = default;
  TokenColumn(TokenColumn&&) = default;
  TokenColumn& operator=(TokenColumn&&) = default;

  /// Builds a column from a snapshot's token section: the vocabulary in
  /// id order, each row's id count, and every row's ids back to back.
  /// Rejects a repeated vocabulary string and an id outside the
  /// vocabulary, and, through Rows::FromCounts, counts that do not add
  /// up to the ids and a row whose ids are not strictly ascending.
  static Status Load(std::vector<std::string> vocabulary,
                     std::span<const uint64_t> counts,
                     std::span<const uint64_t> ids, TokenColumn* out);

  /// Interns the row's tokens and appends its id run as the next row.
  void Append(std::span<const std::string_view> values);

  /// Number of rows appended so far.
  size_t size() const { return rows_.size(); }

  /// Row `row`'s sorted distinct token ids, all < token_limit().
  std::span<const TokenId> Row(size_t row) const { return rows_.Row(row); }

  /// Vocabulary size: one past the largest id.
  uint32_t token_limit() const {
    return static_cast<uint32_t>(vocabulary_.size());
  }

  /// The token string of `id`.
  std::string_view Token(TokenId id) const { return vocabulary_[id]; }

  /// The id rows and the vocabulary in id order, as a snapshot persists
  /// them.
  const Rows<TokenId>& rows() const { return rows_; }
  std::span<const std::string_view> vocabulary() const { return vocabulary_; }

  /// Leaves the probe's sorted distinct known token ids in `*ids` and
  /// returns the size of its whole token set: tokens no row has are
  /// counted there but interned nowhere.
  size_t Lookup(std::span<const std::string_view> values,
                std::vector<TokenId>* ids) const;

  /// Token Jaccard |P ∩ R| / |P ∪ R| of a probe P (its known ids and its
  /// token-set size, from Lookup) and a row R; 0 if either set is empty.
  static double Jaccard(std::span<const TokenId> probe, size_t probe_size,
                        std::span<const TokenId> row);

 private:
  std::unordered_map<std::string, TokenId, TransparentStringHash,
                     std::equal_to<>>
      dictionary_;
  std::vector<std::string_view> vocabulary_;  // id -> dictionary key
  Rows<TokenId> rows_;
  std::string buffer_;              // Append's token scratch
  std::vector<std::string> fresh_;  // Append's new tokens
};

}  // namespace sablock::features

#endif  // SABLOCK_FEATURES_TOKEN_COLUMN_H_
