#ifndef SABLOCK_INDEX_LSH_INDEX_H_
#define SABLOCK_INDEX_LSH_INDEX_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lsh_blocker.h"
#include "core/minhash.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// Incremental minhash-LSH banding tables: l tables keyed by the band key
/// of k signature rows, the index-side counterpart of core::LshBlocker.
/// Records with empty shingle sets are live but enter no table, exactly
/// like the batch blocker excludes them.
class LshIndex : public IncrementalIndex {
 public:
  explicit LshIndex(core::LshParams params);

  std::string name() const override;
  Status Bind(const data::Schema& schema) override;
  void Insert(data::RecordId id,
              std::span<const std::string_view> values) override;
  bool Remove(data::RecordId id) override;
  std::vector<data::RecordId> Query(
      std::span<const std::string_view> values) const override;
  void EmitBlocks(core::BlockSink& sink) const override;
  size_t size() const override { return record_bands_.size(); }

 private:
  core::LshParams params_;
  core::MinHasher hasher_;       // k*l rows, params_.seed
  std::vector<int> attr_index_;  // schema positions, set by Bind
  bool bound_ = false;

  // tables_[t] maps a band key to the bucket's live ids (ascending).
  std::vector<std::unordered_map<uint64_t, std::vector<data::RecordId>>>
      tables_;
  // Per live record: its l band keys, or empty for records excluded by an
  // empty shingle set. This is all Remove needs — signatures are not kept.
  std::map<data::RecordId, std::vector<uint64_t>> record_bands_;
};

/// Incremental semantic-aware LSH: LshIndex's tables gated by the w-way
/// semantic hash of core::SemanticAwareLshBlocker.
///
/// The semhash feature set is data-dependent (the union of leaf concepts
/// reachable from the indexed records, Algorithm 1), so inserting a record
/// with previously unseen concepts can grow the semantic dimension; the
/// index then rebuilds its tables from the stored per-record state so that
/// EmitBlocks always matches the batch blocker over the same records.
/// The feature set is built from every concept ever inserted: removals
/// shrink the record set but deliberately not the feature set (features
/// are never un-selected), so batch parity is guaranteed after inserts,
/// not after removals.
class SaLshIndex : public IncrementalIndex {
 public:
  SaLshIndex(core::LshParams lsh_params, core::SemanticParams sem_params,
             std::shared_ptr<const core::SemanticFunction> semantics);

  std::string name() const override;
  Status Bind(const data::Schema& schema) override;
  void Insert(data::RecordId id,
              std::span<const std::string_view> values) override;
  bool Remove(data::RecordId id) override;
  std::vector<data::RecordId> Query(
      std::span<const std::string_view> values) const override;
  void EmitBlocks(core::BlockSink& sink) const override;
  size_t size() const override { return records_.size(); }

 private:
  struct RecordState {
    std::vector<uint64_t> bands;        // l band keys; empty: no shingles
    std::vector<core::ConceptId> zeta;  // semantic interpretation
  };

  /// Bucket keys of one record in table `t` under the current encoder.
  void TableKeys(int t, uint64_t band, const core::SemSignature& sem,
                 std::vector<uint64_t>* keys) const;
  /// Re-derives the per-table semhash draws for the current dimension.
  void RefreshChoices();
  /// Clears and refills every table from records_ (after a dim change).
  void RebuildTables();
  void InsertIntoTables(data::RecordId id, const RecordState& state);
  void RemoveFromTables(data::RecordId id, const RecordState& state);

  core::LshParams lsh_params_;
  core::SemanticParams sem_params_;
  std::shared_ptr<const core::SemanticFunction> semantics_;
  core::MinHasher hasher_;
  std::vector<int> attr_index_;
  data::Schema schema_;  // the bound schema, for SemanticFunction
  bool bound_ = false;

  core::SemhashEncoder encoder_;  // built from seen_concepts_
  std::set<core::ConceptId> seen_concepts_;  // ever inserted, never shrinks
  std::vector<std::vector<size_t>> chosen_;  // per-table semhash draws
  std::vector<std::unordered_map<uint64_t, std::vector<data::RecordId>>>
      tables_;
  std::map<data::RecordId, RecordState> records_;
};

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_LSH_INDEX_H_
