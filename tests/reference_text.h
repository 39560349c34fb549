#ifndef SABLOCK_TESTS_REFERENCE_TEXT_H_
#define SABLOCK_TESTS_REFERENCE_TEXT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "data/record.h"

namespace sablock {

/// A record's blocking text by its definition, with names looked up one
/// by one and none of data::BlockingText's code: the non-empty values of
/// `attributes` (a name the schema lacks is skipped) in list order, joined
/// by one space, then NormalizeForMatching. The reference text of the
/// tests of the text column and of what is built on it.
inline std::string DefinedText(const data::Dataset& d, data::RecordId id,
                               const std::vector<std::string>& attributes) {
  std::string joined;
  for (const std::string& attribute : attributes) {
    const int position = d.schema().IndexOf(attribute);
    if (position < 0) continue;
    const std::string_view value = d.Values(id)[static_cast<size_t>(position)];
    if (value.empty()) continue;
    if (!joined.empty()) joined += ' ';
    joined += value;
  }
  return NormalizeForMatching(joined);
}

}  // namespace sablock

#endif  // SABLOCK_TESTS_REFERENCE_TEXT_H_
