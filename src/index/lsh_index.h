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

/// Incremental minhash-LSH banding tables, the index-side counterpart of
/// core::LshBlocker, plain (`lsh`) and, given a semantic function,
/// semantic-aware (`sa-lsh`): l tables keyed by the band key of k
/// signature rows, each key gated by the w-way semantic hash. A record's
/// signature minhashes the q-gram shingles of its data::BlockingText, the
/// batch text column's row. Records with empty shingle sets are live but
/// enter no table, exactly like the batch blockers exclude them.
///
/// The semhash feature set is data-dependent (the union of leaf concepts
/// reachable from the indexed records, Algorithm 1), so inserting a record
/// with previously unseen concepts can grow the semantic dimension; the
/// index then rebuilds its tables from the stored per-record state so that
/// EmitBlocks always matches the batch blocker over the same records.
/// While the dimension is 0, as it always is without a semantic function,
/// a table is keyed by the band alone, as in the batch blocker.
/// The feature set is built from every concept ever inserted: removals
/// shrink the record set but deliberately not the feature set (features
/// are never un-selected), so batch parity is guaranteed after inserts,
/// not after removals.
class LshIndex : public IncrementalIndex {
 public:
  /// Plain LSH.
  explicit LshIndex(core::LshParams params);
  /// Semantic-aware LSH.
  LshIndex(core::LshParams params, core::SemanticParams sem_params,
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

  /// The semantic signature of `zeta`; empty while the dimension is 0.
  core::SemSignature Encode(const std::vector<core::ConceptId>& zeta) const;
  /// Calls fn(t, key) for every key of table t that a record with these
  /// band keys and semantic signature is bucketed under.
  template <typename Fn>
  void ForEachBucketKey(const std::vector<uint64_t>& bands,
                        const core::SemSignature& sem, Fn fn) const;
  void InsertIntoTables(data::RecordId id, const RecordState& state);

  core::LshParams params_;
  core::SemanticParams sem_params_;
  std::shared_ptr<const core::SemanticFunction> semantics_;  // null: lsh
  core::MinHasher hasher_;      // k*l rows, params_.seed
  std::vector<int> positions_;  // the attributes' positions, set by Bind
  data::Schema schema_;         // the bound schema, for SemanticFunction
  bool bound_ = false;

  core::SemhashEncoder encoder_;  // built from seen_concepts_
  std::set<core::ConceptId> seen_concepts_;  // ever inserted, never shrinks
  std::vector<std::vector<size_t>> chosen_;  // per-table semhash draws
  // tables_[t] maps a bucket key to the bucket's live ids (ascending).
  std::vector<std::unordered_map<uint64_t, std::vector<data::RecordId>>>
      tables_;
  std::map<data::RecordId, RecordState> records_;
};

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_LSH_INDEX_H_
