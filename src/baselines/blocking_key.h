#ifndef SABLOCK_BASELINES_BLOCKING_KEY_H_
#define SABLOCK_BASELINES_BLOCKING_KEY_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/record.h"
#include "features/feature_store.h"

namespace sablock::baselines {

/// How one attribute contributes to a blocking-key value (BKV).
struct KeyComponent {
  enum class Encoding {
    kExact,      ///< normalized full value
    kPrefix,     ///< first `prefix_len` characters of the normalized value
    kSoundex,    ///< Soundex code of the first word
    kNysiis,     ///< NYSIIS code of the first word
    kFirstWord,  ///< first word of the normalized value
  };
  std::string attribute;
  Encoding encoding = Encoding::kExact;
  int prefix_len = 4;
};

/// A blocking-key definition: the concatenation of encoded attribute
/// values. The paper defines the Cora key on authors + title and the
/// NC Voter key on first_name + last_name; helpers below build those.
struct BlockingKeyDef {
  std::vector<KeyComponent> components;
};

/// Per-dataset BKV generator: resolves each component's one-attribute
/// text column (the value RowKey encodes) from the dataset's FeatureStore
/// once, then builds keys with no per-record normalization or attribute
/// lookup. Every key-based technique constructs one of these per Run.
class KeyBuilder {
 public:
  KeyBuilder(const data::Dataset& dataset, const BlockingKeyDef& def);

  /// The BKV of one record (components joined without separator; missing
  /// values contribute nothing).
  std::string Key(data::RecordId id) const;

 private:
  BlockingKeyDef def_;  // owned copy: safe for temporary-def callers
  // One text column per component; each handle keeps the store alive.
  std::vector<features::FeatureView::Handle<features::TextColumn>> columns_;
};

/// The components' attribute names, in order: what RowKey's positions resolve.
std::vector<std::string> KeyAttributes(const BlockingKeyDef& def);

/// The BKV of one schema-aligned value row, component c read at
/// `positions[c]` (-1: the schema lacks it, and it adds nothing) as its
/// one-attribute data::BlockingText. The one per-record key function,
/// behind the incremental sorted-neighbourhood index.
std::string RowKey(const BlockingKeyDef& def, std::span<const int> positions,
                   std::span<const std::string_view> values);

/// Computes all records' BKVs.
std::vector<std::string> MakeAllKeys(const data::Dataset& dataset,
                                     const BlockingKeyDef& def);

/// Exact-value key over the given attributes (sorted-neighbourhood style
/// sorting key).
BlockingKeyDef ExactKey(const std::vector<std::string>& attributes);

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_BLOCKING_KEY_H_
