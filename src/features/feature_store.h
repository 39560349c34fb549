#ifndef SABLOCK_FEATURES_FEATURE_STORE_H_
#define SABLOCK_FEATURES_FEATURE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/record.h"
#include "features/rows.h"
#include "features/token_column.h"

namespace sablock::features {

/// Per-record normalized blocking text for one attribute selection, in
/// the one row layout over chars: Row(id) is a std::string_view, the
/// record's data::BlockingText (Dataset::ConcatenatedValues).
using TextColumn = Rows<char>;

/// Per-record sorted distinct q-gram shingle hashes for one
/// (attributes, q) selection, in the one row layout over hashes: Row(id)
/// is exactly text::QGramHashes over the text row.
using ShingleColumn = Rows<uint64_t>;

/// Per-record minhash signatures for one (attributes, q, num_hashes,
/// seed) selection — core::MinHasher over the shingle column. Stored as
/// one flat row-major array (record-major, num_hashes slots per record):
/// a single allocation for the whole column, written in place by
/// MinHasher::SignatureInto with no per-record vector churn. The array is
/// left uninitialized until its build chunks write it, so a cold build
/// pays no serial zero-fill and its pages fault in on the building
/// threads.
///
/// Readers go through `rows`, which either aliases the owning `data`
/// array (built columns) or an external immutable region such as a
/// read-only snapshot mapping kept alive by `retain` (adopted columns —
/// the matrix is served zero-copy straight out of the file).
struct SignatureColumn {
  uint32_t num_hashes = 0;
  std::unique_ptr<uint64_t[]> data;  // owning storage; null when adopted
  std::span<const uint64_t> rows;    // records × num_hashes values
  std::shared_ptr<const void> retain;  // keep-alive for non-owned rows

  size_t size() const { return num_hashes == 0 ? 0 : rows.size() / num_hashes; }
  std::span<const uint64_t> Row(size_t record) const {
    return rows.subspan(record * num_hashes, num_hashes);
  }
};

/// Per-record LSH band keys for one (attributes, q, k, l, seed) selection:
/// record r's l keys are core::LshBander's over its text row, so the k·l
/// signature they come from is never stored. One flat array holds
/// `keys`, records × l record-major, and then `empty`, one bit per record
/// (64 to a word, bit r % 64 of word r / 64) set for a record whose text
/// is empty: such a record enters no table, and its keys are zero. The
/// mark is exact: no key value stands for "empty". Owned and left
/// uninitialized until its build chunks write it, like the signature
/// matrix, or adopted from a snapshot mapping kept alive by `retain`.
struct BandColumn {
  uint32_t tables = 0;                 // l
  std::unique_ptr<uint64_t[]> data;    // owning storage; null when adopted
  std::span<const uint64_t> keys;      // records × tables keys
  std::span<const uint64_t> empty;     // MarkWords(records) mark words
  std::shared_ptr<const void> retain;  // keep-alive for non-owned words

  /// Mark words for `records` records.
  static size_t MarkWords(size_t records) { return (records + 63) / 64; }

  size_t size() const { return tables == 0 ? 0 : keys.size() / tables; }
  /// True if record `record` has an empty text and enters no table.
  bool Empty(size_t record) const {
    return (empty[record / 64] >> (record % 64)) & 1;
  }
  /// Record `record`'s l band keys; none if it enters no table.
  std::span<const uint64_t> Row(size_t record) const {
    if (Empty(record)) return {};
    return keys.subspan(record * tables, tables);
  }
};

/// Shared feature-extraction cache attached to a Dataset (the "features"
/// layer between data and the blocking techniques). Columns are built
/// lazily, exactly once, and are immutable after publication:
///
///  - builds are cooperative: the first getter of a column sizes it, and
///    every getter that arrives before it is published claims fixed-size
///    record chunks from the build's atomic cursor instead of idling, so
///    the engine shards racing a cold column all build it; each chunk
///    writes its own part of the column's one allocation (the text and
///    shingle columns are sized by per-record upper bounds and compacted
///    after the last chunk), and the last chunk publishes the column and
///    wakes every waiter;
///  - a getter resolves the column's parent before its own build (texts
///    -> shingles -> signatures, texts -> bands, texts -> tokens), so
///    waiting threads help at every level. The token column is the one
///    serial build (its ids follow TokenColumn's id rule, which depends on
///    the rows before): its helpers help the text column and then wait;
///  - lsh and sa-lsh read the band column, `forest` is the signature
///    column's one reader, and mp-lsh, harra and the tuning code read the
///    shingle column;
///  - distinct columns build independently (the registry map mutex is
///    held only to find/insert the entry, never while building);
///  - derived columns stack on their parents, so the string work of the
///    legacy O(techniques × records) recomputation collapses to
///    O(records) per distinct attribute selection, and each consumer pays
///    only for the representation it actually reads.
///
/// Cache telemetry counts one hit or miss per getter call: the getter
/// that starts a build counts the miss, every other getter a hit, and a
/// thread's help with a parent column is not a getter call.
///
/// The store snapshots the dataset it is attached to (sharing its string
/// arena, copying only value spans), so it stays valid independent of the
/// originating Dataset object's lifetime — slices hand out FeatureViews
/// into their parent's store long after the parent is gone.
class FeatureStore {
 public:
  explicit FeatureStore(const data::Dataset& dataset);
  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// Records in the snapshot (== the root dataset's size).
  size_t size() const { return snapshot_.size(); }

  /// The snapshotted records (for feature builders and reference
  /// recomputation in tests).
  const data::Dataset& snapshot() const { return snapshot_; }

  /// Dataset::version() at snapshot time; Dataset::features() compares it
  /// against the live version to catch stale caches after mutations.
  uint64_t dataset_version() const { return dataset_version_; }

  const TextColumn& Texts(const std::vector<std::string>& attributes) const;
  /// The text column's rows appended, in record order, to one
  /// TokenColumn: row r holds record r's distinct whitespace tokens as
  /// sorted ids in [0, token_limit()), and the vocabulary is exactly this
  /// column's. Built on top of (and lazily after) the text column, so
  /// text-only consumers (blocking keys) never pay for tokenization.
  const TokenColumn& Tokens(const std::vector<std::string>& attributes) const;
  const ShingleColumn& Shingles(const std::vector<std::string>& attributes,
                                int q) const;
  const SignatureColumn& Signatures(
      const std::vector<std::string>& attributes, int q, int num_hashes,
      uint64_t seed) const;
  /// The band keys of l tables of k minhash rows over q-grams, hash family
  /// `seed`, built straight from the text column.
  const BandColumn& Bands(const std::vector<std::string>& attributes, int q,
                          int k, int l, uint64_t seed) const;

  /// Parameters of one built column, recorded at build/adopt time so the
  /// snapshot writer can enumerate exactly what was cached and persist it.
  struct ColumnParams {
    std::vector<std::string> attributes;
    int q = 0;           // shingle, signature & band columns
    int num_hashes = 0;  // signature columns only
    uint64_t seed = 0;   // signature & band columns
    int k = 0;           // band columns only: rows per table
    int l = 0;           // band columns only: tables
  };

  /// The built-column catalog, one list per column kind, in publication
  /// order (deterministic for a single-threaded warm-up sequence). A build
  /// or an adoption enters a column there once, so the list sizes count
  /// the builds.
  struct Catalog {
    std::vector<ColumnParams> texts;
    std::vector<ColumnParams> tokens;
    std::vector<ColumnParams> shingles;
    std::vector<ColumnParams> signatures;
    std::vector<ColumnParams> bands;
  };
  Catalog catalog() const;

  // Snapshot-loader adoption: pre-publishes a column deserialized from a
  // snapshot so the first getter call is a cache hit instead of a build.
  // Adopt while the loader solely owns the store (before any getter can
  // race the same key). Returns false, adopting nothing, if the column is
  // already built or adopted (a snapshot that repeats a column section).

  [[nodiscard]] bool AdoptTexts(const std::vector<std::string>& attributes,
                                TextColumn column);
  [[nodiscard]] bool AdoptTokens(const std::vector<std::string>& attributes,
                                 TokenColumn column);
  [[nodiscard]] bool AdoptShingles(
      const std::vector<std::string>& attributes, int q,
      ShingleColumn column);
  [[nodiscard]] bool AdoptSignatures(
      const std::vector<std::string>& attributes, int q, int num_hashes,
      uint64_t seed, SignatureColumn column);
  [[nodiscard]] bool AdoptBands(const std::vector<std::string>& attributes,
                                int q, int k, int l, uint64_t seed,
                                BandColumn column);

 private:
  struct ColumnMetrics;  // per-kind cache telemetry (feature_store.cc)

  // A column's build moves forward only: a getter claims it, resolves its
  // parent and sizes it (kBuilding opens the chunk cursor), and the thread
  // that finishes the last chunk publishes it.
  enum class Phase : uint8_t { kEmpty, kClaimed, kBuilding, kReady };

  // Who asks for a column: a public getter (counted in the telemetry, may
  // start the build) or a thread helping a derived column's build, which
  // only joins builds a getter has started.
  enum class Caller : uint8_t { kGetter, kHelper };

  template <typename Column>
  struct Entry {
    std::atomic<Phase> phase{Phase::kEmpty};  // kReady is read lock-free
    std::mutex mutex;                         // orders phase changes
    std::condition_variable changed;          // signalled on each change
    size_t num_chunks = 0;                    // fixed before kBuilding
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> chunks_left{0};
    Column column;
    std::vector<size_t> firsts;  // a Rows column's first slot per chunk
  };
  template <typename Column>
  using EntryMap =
      std::unordered_map<std::string, std::unique_ptr<Entry<Column>>>;

  template <typename Column>
  Entry<Column>& FindOrCreate(EntryMap<Column>& map,
                              const std::string& key) const;

  /// The calling thread's part in `entry`'s build, returning the
  /// published column. `chunk_records` records make one chunk; `parent`
  /// resolves the parent column (as a getter for the thread that starts
  /// the build, as a helper otherwise), `prepare(column)` sizes the column
  /// once before any chunk, `fill(column, begin, end)` builds one record
  /// range and `record()` enters the column in the catalog once, after the
  /// last chunk, before publication. A Rows column is sized instead by
  /// `prepare(id)`, an upper bound on record id's values: chunk c gets the
  /// slots after the bounds of the chunks before it, `fill(column, begin,
  /// end, first_slot)` writes its rows there, and the thread that finishes
  /// the last chunk compacts the column.
  template <typename Column, typename Parent, typename Prepare,
            typename Fill, typename Record>
  const Column& Obtain(Entry<Column>& entry, Caller caller,
                       ColumnMetrics& metrics, size_t chunk_records,
                       Parent&& parent, Prepare&& prepare, Fill&& fill,
                       Record&& record) const;

  /// Publishes an adopted column of size() records and enters it in the
  /// catalog; false if the column was already claimed.
  template <typename Column>
  bool Adopt(EntryMap<Column>& map, const std::string& key,
             std::vector<ColumnParams> Catalog::* list, ColumnParams params,
             Column column);

  const TextColumn& Texts(const std::vector<std::string>& attributes,
                          Caller caller) const;
  const ShingleColumn& Shingles(const std::vector<std::string>& attributes,
                                int q, Caller caller) const;

  void RecordInCatalog(std::vector<ColumnParams> Catalog::* list,
                       ColumnParams params) const;

  data::Dataset snapshot_;
  uint64_t dataset_version_ = 0;

  mutable std::mutex map_mutex_;  // guards the entry maps + catalog
  mutable Catalog catalog_;
  mutable EntryMap<TextColumn> texts_;
  mutable EntryMap<TokenColumn> tokens_columns_;
  mutable EntryMap<ShingleColumn> shingles_;
  mutable EntryMap<SignatureColumn> signatures_;
  mutable EntryMap<BandColumn> bands_;
};

/// A dataset's window into a FeatureStore: translates the dataset's local
/// record ids to the store snapshot's ids (non-zero offset for slices of
/// a sharded execution) and keeps the store alive. Obtain one per
/// technique run via Dataset::features(), resolve the needed columns once
/// as handles with the *For getters, then read per-record rows O(1) in
/// the hot loop.
class FeatureView {
 public:
  FeatureView() = default;
  FeatureView(std::shared_ptr<const FeatureStore> store, size_t offset,
              size_t size)
      : store_(std::move(store)), offset_(offset), size_(size) {}

  /// Records visible through this view (the owning dataset's size).
  size_t size() const { return size_; }

  /// First store-snapshot record this view maps to (non-zero for slice
  /// views; the snapshot writer only persists whole-dataset stores).
  size_t offset() const { return offset_; }

  const FeatureStore& store() const { return *store_; }
  std::shared_ptr<const FeatureStore> store_ptr() const { return store_; }

  /// One column seen through this view: Row(id) is the row of the view's
  /// record `id`, and column() the whole column (for example a token
  /// column's token_limit()). A handle co-owns the store, so it stays
  /// valid even if the originating Dataset mutates (Add resets its cache
  /// pointer) or was a temporary (e.g. a one-statement Slice) — whoever
  /// holds the handle keeps the snapshot alive.
  template <typename Column>
  class Handle {
   public:
    auto Row(data::RecordId id) const { return column_->Row(offset_ + id); }
    const Column& column() const { return *column_; }

   private:
    friend class FeatureView;
    Handle(std::shared_ptr<const FeatureStore> owner, const Column* column,
           size_t offset)
        : owner_(std::move(owner)), column_(column), offset_(offset) {}
    std::shared_ptr<const FeatureStore> owner_;
    const Column* column_;
    size_t offset_;
  };

  Handle<TextColumn> TextsFor(
      const std::vector<std::string>& attributes) const {
    return {store_, &store_->Texts(attributes), offset_};
  }
  Handle<TokenColumn> TokensFor(
      const std::vector<std::string>& attributes) const {
    return {store_, &store_->Tokens(attributes), offset_};
  }
  Handle<ShingleColumn> ShinglesFor(const std::vector<std::string>& attributes,
                                    int q) const {
    return {store_, &store_->Shingles(attributes, q), offset_};
  }
  Handle<SignatureColumn> SignaturesFor(
      const std::vector<std::string>& attributes, int q, int num_hashes,
      uint64_t seed) const {
    return {store_, &store_->Signatures(attributes, q, num_hashes, seed),
            offset_};
  }
  Handle<BandColumn> BandsFor(const std::vector<std::string>& attributes,
                              int q, int k, int l, uint64_t seed) const {
    return {store_, &store_->Bands(attributes, q, k, l, seed), offset_};
  }

 private:
  std::shared_ptr<const FeatureStore> store_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

}  // namespace sablock::features

#endif  // SABLOCK_FEATURES_FEATURE_STORE_H_
