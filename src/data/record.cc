#include "data/record.h"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "features/feature_store.h"

namespace sablock::data {

namespace {

/// Guards lazy creation of per-dataset feature stores. Creation is rare
/// (once per root dataset) and the store itself is internally
/// synchronized, so one process-wide mutex is plenty.
std::mutex& FeatureCreationMutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

Schema::Schema(std::vector<std::string> attribute_names)
    : names_(std::move(attribute_names)) {
  index_.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    index_.emplace(names_[i], i);
  }
}

int Schema::IndexOf(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return -1;
  return static_cast<int>(it->second);
}

size_t Schema::RequireIndex(std::string_view name) const {
  int idx = IndexOf(name);
  SABLOCK_CHECK_MSG(idx >= 0, "schema is missing a required attribute");
  return static_cast<size_t>(idx);
}

std::vector<int> Schema::Positions(std::span<const std::string> names) const {
  std::vector<int> positions;
  positions.reserve(names.size());
  for (const std::string& name : names) positions.push_back(IndexOf(name));
  return positions;
}

size_t WriteBlockingText(std::span<const std::string_view> values,
                         std::span<const int> positions,
                         std::span<char> out) {
  // NormalizeForMatching of the values joined by spaces, in one pass: the
  // maximal runs of ASCII letters and digits, lowercased, one space apart.
  // No run spans two values, and an empty value holds none.
  size_t length = 0;
  bool gap = false;
  for (int position : positions) {
    if (position < 0) continue;
    for (char c : values[static_cast<size_t>(position)]) {
      const char m = MatchingChar(c);
      if (m != 0 && gap && length > 0) out[length++] = ' ';
      if (m != 0) out[length++] = m;
      gap = m == 0;
    }
    gap = true;
  }
  return length;
}

size_t BlockingTextBound(std::span<const std::string_view> values,
                         std::span<const int> positions) {
  size_t bound = 0;  // a char per value byte, a space after each value
  for (int position : positions) {
    if (position < 0) continue;
    bound += values[static_cast<size_t>(position)].size() + 1;
  }
  return bound;
}

std::string BlockingText(std::span<const std::string_view> values,
                         std::span<const int> positions) {
  std::string text(BlockingTextBound(values, positions), '\0');
  text.resize(WriteBlockingText(values, positions, text));
  return text;
}

Dataset::Dataset(const Dataset& other)
    : schema_(other.schema_),
      arena_(other.arena_),
      values_(other.values_),
      entities_(other.entities_),
      version_(other.version_) {
  // The feature pointer may be published concurrently by a features()
  // call on `other`; read it under the same mutex that publishes it.
  std::lock_guard<std::mutex> lock(FeatureCreationMutex());
  features_ = other.features_;
  feature_offset_ = other.feature_offset_;
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  arena_ = other.arena_;
  values_ = other.values_;
  entities_ = other.entities_;
  version_ = other.version_;
  std::lock_guard<std::mutex> lock(FeatureCreationMutex());
  features_ = other.features_;
  feature_offset_ = other.feature_offset_;
  return *this;
}

std::string_view Dataset::Intern(std::string_view s) {
  if (s.empty()) return {};
  if (!arena_) arena_ = std::make_shared<StringArena>();
  return arena_->Intern(s);
}

RecordId Dataset::Add(const Record& record, EntityId entity) {
  SABLOCK_CHECK_MSG(record.values.size() == schema_.size(),
                    "record arity does not match schema");
  for (const std::string& v : record.values) {
    values_.push_back(Intern(v));
  }
  entities_.push_back(entity);
  ++version_;
  features_.reset();  // any existing store snapshot is now stale
  feature_offset_ = 0;
  return static_cast<RecordId>(entities_.size() - 1);
}

RecordId Dataset::AddRow(std::span<const std::string_view> values,
                         EntityId entity) {
  SABLOCK_CHECK_MSG(values.size() == schema_.size(),
                    "record arity does not match schema");
  // Copy the row's views before mutating values_: the span may alias this
  // dataset's own value table (self-append), which push_back would
  // reallocate mid-loop. The views point into the stable arena, so the
  // copied structs stay valid.
  std::vector<std::string_view> row(values.begin(), values.end());
  for (std::string_view v : row) {
    values_.push_back(Intern(v));
  }
  entities_.push_back(entity);
  ++version_;
  features_.reset();
  feature_offset_ = 0;
  return static_cast<RecordId>(entities_.size() - 1);
}

Dataset Dataset::FromColumns(Schema schema, std::shared_ptr<StringArena> arena,
                             std::vector<std::string_view> values,
                             std::vector<EntityId> entities) {
  SABLOCK_CHECK_MSG(values.size() == entities.size() * schema.size(),
                    "column storage does not match schema width");
  Dataset out(std::move(schema));
  out.arena_ = std::move(arena);
  out.values_ = std::move(values);
  out.entities_ = std::move(entities);
  out.version_ = out.entities_.size();
  return out;
}

void Dataset::AdoptFeatures(
    std::shared_ptr<const features::FeatureStore> store) {
  SABLOCK_CHECK_MSG(store != nullptr, "cannot adopt a null feature store");
  SABLOCK_CHECK_MSG(
      store->dataset_version() == version_ && store->size() == size(),
      "adopted feature store does not snapshot this dataset");
  std::lock_guard<std::mutex> lock(FeatureCreationMutex());
  features_ = std::move(store);
  feature_offset_ = 0;
}

Record Dataset::record(RecordId id) const {
  Record out;
  out.values.reserve(schema_.size());
  for (std::string_view v : Values(id)) {
    out.values.emplace_back(v);
  }
  return out;
}

std::string_view Dataset::Value(RecordId id, std::string_view attribute) const {
  int idx = schema_.IndexOf(attribute);
  if (idx < 0) return {};
  return values_[static_cast<size_t>(id) * schema_.size() +
                 static_cast<size_t>(idx)];
}

uint64_t Dataset::CountTrueMatchPairs() const {
  std::unordered_map<EntityId, uint64_t> cluster_sizes;
  for (EntityId e : entities_) {
    if (e != kUnknownEntity) ++cluster_sizes[e];
  }
  uint64_t pairs = 0;
  for (const auto& [entity, n] : cluster_sizes) {
    pairs += n * (n - 1) / 2;
  }
  return pairs;
}

Dataset Dataset::Slice(size_t begin, size_t end) const {
  Dataset out(schema_);
  size_t limit = end < size() ? end : size();
  if (begin >= limit) return out;
  out.arena_ = arena_;
  const size_t width = schema_.size();
  out.values_.assign(values_.begin() + static_cast<ptrdiff_t>(begin * width),
                     values_.begin() + static_cast<ptrdiff_t>(limit * width));
  out.entities_.assign(entities_.begin() + static_cast<ptrdiff_t>(begin),
                       entities_.begin() + static_cast<ptrdiff_t>(limit));
  // Slices inherit the parent's version so an inherited store passes the
  // features() staleness check below (the store snapshotted that version).
  out.version_ = version_;
  {
    // Share an already created feature store so every shard of a sharded
    // execution reuses the parent's caches.
    std::lock_guard<std::mutex> lock(FeatureCreationMutex());
    out.features_ = features_;
  }
  if (out.features_) out.feature_offset_ = feature_offset_ + begin;
  return out;
}

Dataset Dataset::ColdCopy() const {
  Dataset out(schema_);
  out.arena_ = arena_;
  out.values_ = values_;
  out.entities_ = entities_;
  out.version_ = version_;
  return out;
}

features::FeatureView Dataset::features() const {
  std::shared_ptr<const features::FeatureStore> store;
  {
    std::lock_guard<std::mutex> lock(FeatureCreationMutex());
    store = features_;
  }
  if (!store) {
    // Construct outside the (process-wide) mutex: snapshotting copies the
    // whole value-span table, and holding the lock across that would
    // serialize first-time store creation for unrelated datasets. Two
    // racing creators both build; the loser's copy is discarded.
    auto fresh = std::make_shared<features::FeatureStore>(*this);
    std::lock_guard<std::mutex> lock(FeatureCreationMutex());
    if (!features_) {
      features_ = std::move(fresh);
      feature_offset_ = 0;  // feature_offset_ only pairs with an inherited
                            // store; a fresh store snapshots *this* dataset
    }
    store = features_;
  }
  // Add/AddRow reset the cache pointer, so a cached store always
  // snapshotted this dataset at its current version; trip loudly if a
  // future mutation path forgets the reset instead of silently serving
  // stale features for the grown dataset.
  SABLOCK_CHECK_MSG(store->dataset_version() == version_,
                    "feature cache is stale: dataset mutated without "
                    "invalidating its FeatureStore");
  return features::FeatureView(std::move(store), feature_offset_, size());
}

}  // namespace sablock::data
