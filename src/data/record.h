#ifndef SABLOCK_DATA_RECORD_H_
#define SABLOCK_DATA_RECORD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "data/arena.h"

namespace sablock::features {
class FeatureStore;
class FeatureView;
}  // namespace sablock::features

namespace sablock::data {

/// Record identifier: the position of a record inside its Dataset.
using RecordId = uint32_t;

/// Entity identifier from the ground truth; records with equal entity ids
/// represent the same real-world entity.
using EntityId = uint32_t;

/// Sentinel for records with no ground-truth label.
inline constexpr EntityId kUnknownEntity = ~0u;

/// Ordered list of attribute names shared by all records of a Dataset.
/// Name lookups go through a name->index hash map, so Dataset::Value is
/// O(1) in the schema width.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::string> attribute_names);

  /// Index of an attribute name, or -1 if absent.
  int IndexOf(std::string_view name) const;

  /// The positions of `names`, in list order (-1: absent), resolved once
  /// so that a per-record path reads value rows by position.
  std::vector<int> Positions(std::span<const std::string> names) const;

  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, size_t, TransparentStringHash,
                     std::equal_to<>>
      index_;
};

/// A record's blocking text: the non-empty values at `positions` of a
/// schema-aligned row (a negative position, a name the schema lacks, is
/// skipped), in list order, joined by one space, then NormalizeForMatching.
/// WriteBlockingText writes it into `out` of at least BlockingTextBound
/// chars and returns its length.
std::string BlockingText(std::span<const std::string_view> values,
                         std::span<const int> positions);
size_t BlockingTextBound(std::span<const std::string_view> values,
                         std::span<const int> positions);
size_t WriteBlockingText(std::span<const std::string_view> values,
                         std::span<const int> positions, std::span<char> out);

/// A record is a flat list of attribute values aligned with a Schema.
/// Used as the *input* type of Dataset::Add; stored records live in the
/// dataset's string arena and are read back as string_view spans.
struct Record {
  std::vector<std::string> values;
};

/// A dataset: schema, records, and optional ground-truth entity labels.
/// This is the input type of every blocking technique in the library.
///
/// Storage is columnar-arena-backed: all attribute bytes live in one
/// shared StringArena and each record is a row of (pointer, length) spans
/// in a flat vector, so Slice/Prefix are zero-copy views that share the
/// arena (and the lazily built FeatureStore) of their parent.
///
/// Thread-safety: a fully built dataset is safe for concurrent reads,
/// including concurrent features() calls; Add/AddRow must not race with
/// anything.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  // Copying is a concurrent-read operation per the thread-safety contract
  // below, so the copy operations synchronize their read of the lazily
  // published feature cache (as Slice does). Moves transfer ownership and
  // must not race with anything, like any other mutation.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Appends a record; aborts if its arity does not match the schema.
  /// Returns the new record's id. Invalidates the feature cache (a store
  /// obtained before the Add keeps serving its old snapshot).
  RecordId Add(const Record& record, EntityId entity = kUnknownEntity);

  /// Appends a record given as raw value views (copied into the arena).
  RecordId AddRow(std::span<const std::string_view> values,
                  EntityId entity = kUnknownEntity);

  /// Assembles a dataset directly from prebuilt columnar storage (the
  /// snapshot loader and ReadCsv). `values` must be row-major with
  /// schema-width rows whose views stay valid for `arena`'s lifetime
  /// (interned or adopted bytes); aborts on a size mismatch. The version
  /// counter ends up as if the records had been appended one by one.
  static Dataset FromColumns(Schema schema, std::shared_ptr<StringArena> arena,
                             std::vector<std::string_view> values,
                             std::vector<EntityId> entities);

  /// Attaches an externally built FeatureStore (precomputed snapshot
  /// columns) as this dataset's feature cache. The store must snapshot
  /// exactly this dataset at its current version; aborts otherwise, so
  /// a loader bug can never wire stale features to the wrong data.
  void AdoptFeatures(std::shared_ptr<const features::FeatureStore> store);

  /// Number of records.
  size_t size() const { return entities_.size(); }
  bool empty() const { return entities_.empty(); }

  const Schema& schema() const { return schema_; }

  /// The attribute values of record `id` as arena-backed views, aligned
  /// with schema().names(). Valid as long as any dataset sharing the
  /// arena is alive.
  std::span<const std::string_view> Values(RecordId id) const {
    return {values_.data() + static_cast<size_t>(id) * schema_.size(),
            schema_.size()};
  }

  /// Ground-truth entity of a record (kUnknownEntity if unlabeled).
  EntityId entity(RecordId id) const { return entities_[id]; }
  const std::vector<EntityId>& entities() const { return entities_; }

  /// True if two records are a ground-truth match.
  bool IsMatch(RecordId a, RecordId b) const {
    return entities_[a] != kUnknownEntity && entities_[a] == entities_[b];
  }

  /// Value of `attribute` in record `id`; empty view if the attribute
  /// does not exist in the schema.
  std::string_view Value(RecordId id, std::string_view attribute) const;

  /// Total number of ground-truth matching pairs |Ω_tp|.
  uint64_t CountTrueMatchPairs() const;

  /// Total number of distinct record pairs |Ω| = n(n-1)/2.
  uint64_t TotalPairs() const {
    uint64_t n = size();
    return n * (n - 1) / 2;
  }

  /// Returns a new dataset containing the first `n` records (a prefix
  /// subset, used by the scalability experiments).
  Dataset Prefix(size_t n) const { return Slice(0, n); }

  /// Returns a new dataset with records [begin, end) (clamped to the
  /// dataset; empty when begin >= end). Record id `i` of the slice is
  /// record `begin + i` of this dataset — the sharded execution engine
  /// relies on this offset mapping to translate shard-local block ids
  /// back to global ids.
  ///
  /// Zero-copy: the slice shares this dataset's arena (no record bytes
  /// are copied) and its FeatureStore (if already created), so features
  /// computed once on the parent serve every slice.
  Dataset Slice(size_t begin, size_t end) const;

  /// A copy sharing this dataset's arena but with a detached (empty)
  /// feature cache — records are not re-derived, features are. Used by
  /// benchmarks to measure cold feature extraction, and by the store
  /// itself to snapshot without creating an ownership cycle.
  Dataset ColdCopy() const;

  /// The shared feature-extraction cache for this dataset (created
  /// lazily, thread-safe). Slices hand back a view into their parent's
  /// store with record ids translated automatically.
  features::FeatureView features() const;

  /// Bytes interned in the backing arena (0 for an empty dataset).
  size_t arena_bytes() const { return arena_ ? arena_->bytes() : 0; }

  /// Mutation counter: bumped by every Add/AddRow. A FeatureStore records
  /// the version it snapshotted, and features() checks the cached store
  /// against the current version — so a mutation can never silently serve
  /// stale tokens/signatures for the grown dataset (handles obtained
  /// before the mutation keep reading their old snapshot, by design).
  uint64_t version() const { return version_; }

 private:
  std::string_view Intern(std::string_view s);

  Schema schema_;
  std::shared_ptr<StringArena> arena_;
  std::vector<std::string_view> values_;  // row-major, size() * schema size
  std::vector<EntityId> entities_;
  uint64_t version_ = 0;  // mutations applied; see version()

  // Lazily created by features(); shared (not rebuilt) by Slice/Prefix
  // copies. feature_offset_ maps this dataset's record ids into the
  // store's snapshot: local id i is snapshot record feature_offset_ + i.
  mutable std::shared_ptr<const features::FeatureStore> features_;
  mutable size_t feature_offset_ = 0;
};

}  // namespace sablock::data

#endif  // SABLOCK_DATA_RECORD_H_
