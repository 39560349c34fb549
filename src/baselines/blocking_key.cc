#include "baselines/blocking_key.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/phonetic.h"

namespace sablock::baselines {

namespace {

/// Encodes one normalized component value onto `key`.
void AppendKeyComponent(const KeyComponent& comp, std::string_view value,
                        std::string* key) {
  if (value.empty()) return;
  switch (comp.encoding) {
    case KeyComponent::Encoding::kExact:
      *key += value;
      break;
    case KeyComponent::Encoding::kPrefix:
      *key += value.substr(
          0, std::min<size_t>(value.size(),
                              static_cast<size_t>(comp.prefix_len)));
      break;
    case KeyComponent::Encoding::kSoundex: {
      std::vector<std::string> words = sablock::SplitWords(value);
      if (!words.empty()) *key += text::Soundex(words.front());
      break;
    }
    case KeyComponent::Encoding::kNysiis: {
      std::vector<std::string> words = sablock::SplitWords(value);
      if (!words.empty()) *key += text::Nysiis(words.front());
      break;
    }
    case KeyComponent::Encoding::kFirstWord: {
      std::vector<std::string> words = sablock::SplitWords(value);
      if (!words.empty()) *key += words.front();
      break;
    }
  }
}

}  // namespace

KeyBuilder::KeyBuilder(const data::Dataset& dataset,
                       const BlockingKeyDef& def)
    : def_(def) {
  const features::FeatureView features = dataset.features();
  columns_.reserve(def.components.size());
  for (const KeyComponent& comp : def.components) {
    // The component's one-attribute text column, cached once per dataset.
    columns_.push_back(features.TextsFor({comp.attribute}));
  }
}

std::string KeyBuilder::Key(data::RecordId id) const {
  std::string key;
  for (size_t c = 0; c < def_.components.size(); ++c) {
    AppendKeyComponent(def_.components[c], columns_[c].Row(id), &key);
  }
  return key;
}

std::vector<std::string> KeyAttributes(const BlockingKeyDef& def) {
  std::vector<std::string> attributes;
  attributes.reserve(def.components.size());
  for (const KeyComponent& comp : def.components) {
    attributes.push_back(comp.attribute);
  }
  return attributes;
}

std::string RowKey(const BlockingKeyDef& def, std::span<const int> positions,
                   std::span<const std::string_view> values) {
  std::string key;
  for (size_t c = 0; c < def.components.size(); ++c) {
    AppendKeyComponent(def.components[c],
                       data::BlockingText(values, positions.subspan(c, 1)),
                       &key);
  }
  return key;
}

std::string MakeKey(const data::Dataset& dataset, data::RecordId id,
                    const BlockingKeyDef& def) {
  return RowKey(def, dataset.schema().Positions(KeyAttributes(def)),
                dataset.Values(id));
}

std::vector<std::string> MakeAllKeys(const data::Dataset& dataset,
                                     const BlockingKeyDef& def) {
  KeyBuilder builder(dataset, def);
  std::vector<std::string> keys;
  keys.reserve(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    keys.push_back(builder.Key(id));
  }
  return keys;
}

BlockingKeyDef ExactKey(const std::vector<std::string>& attributes) {
  BlockingKeyDef def;
  for (const std::string& attr : attributes) {
    def.components.push_back({attr, KeyComponent::Encoding::kExact, 0});
  }
  return def;
}

}  // namespace sablock::baselines
