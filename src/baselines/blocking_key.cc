#include "baselines/blocking_key.h"

namespace sablock::baselines {

KeyBuilder::KeyBuilder(const data::Dataset& dataset,
                       const std::vector<std::string>& attributes) {
  const features::FeatureView features = dataset.features();
  columns_.reserve(attributes.size());
  for (const std::string& attribute : attributes) {
    // The attribute's one-attribute text column, cached once per dataset.
    columns_.push_back(features.TextsFor({attribute}));
  }
}

std::string KeyBuilder::Key(data::RecordId id) const {
  std::string key;
  for (const auto& column : columns_) key += column.Row(id);
  return key;
}

std::string RowKey(std::span<const int> positions,
                   std::span<const std::string_view> values) {
  std::string key;
  for (size_t a = 0; a < positions.size(); ++a) {
    key += data::BlockingText(values, positions.subspan(a, 1));
  }
  return key;
}

std::vector<std::string> MakeAllKeys(
    const data::Dataset& dataset, const std::vector<std::string>& attributes) {
  KeyBuilder builder(dataset, attributes);
  std::vector<std::string> keys;
  keys.reserve(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    keys.push_back(builder.Key(id));
  }
  return keys;
}

}  // namespace sablock::baselines
