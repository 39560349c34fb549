#ifndef SABLOCK_BASELINES_BLOCKING_KEY_H_
#define SABLOCK_BASELINES_BLOCKING_KEY_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/record.h"
#include "features/feature_store.h"

namespace sablock::baselines {

/// A blocking-key value (BKV) is the list of its attributes' one-attribute
/// data::BlockingText values, joined with no separator; an empty text adds
/// nothing. The paper keys Cora on authors + title and NC Voter on
/// first_name + last_name.
///
/// Per-dataset BKV generator: resolves each attribute's one-attribute
/// text column from the dataset's FeatureStore once, then builds keys
/// with no per-record normalization or attribute lookup. Every key-based
/// technique constructs one of these per Run.
class KeyBuilder {
 public:
  KeyBuilder(const data::Dataset& dataset,
             const std::vector<std::string>& attributes);

  /// The BKV of one record.
  std::string Key(data::RecordId id) const;

 private:
  // One text column per attribute; each handle keeps the store alive.
  std::vector<features::FeatureView::Handle<features::TextColumn>> columns_;
};

/// The BKV of one schema-aligned value row, attribute a read at
/// `positions[a]` (-1: the schema lacks it, and it adds nothing). The one
/// per-record key function, behind the incremental sorted-neighbourhood
/// index.
std::string RowKey(std::span<const int> positions,
                   std::span<const std::string_view> values);

/// Computes all records' BKVs.
std::vector<std::string> MakeAllKeys(
    const data::Dataset& dataset, const std::vector<std::string>& attributes);

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_BLOCKING_KEY_H_
