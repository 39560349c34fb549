#ifndef SABLOCK_INDEX_LSH_INDEX_H_
#define SABLOCK_INDEX_LSH_INDEX_H_

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/lsh_blocker.h"
#include "core/minhash.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// Incremental minhash-LSH banding tables, the index-side counterpart of
/// core::LshBlocker, plain (`lsh`) and, given a semantic function,
/// semantic-aware (`sa-lsh`): l tables keyed by the band key of k
/// signature rows, each key gated by the w-way semantic hash. A record's
/// band keys are core::LshBander's over its data::BlockingText, the one
/// per-record band computation the batch band column uses too. Records
/// with an empty text are live but enter no table, exactly like the batch
/// blockers exclude them.
///
/// The semhash feature set is data-dependent (the union of leaf concepts
/// reachable from the indexed records, Algorithm 1), so inserting a record
/// with previously unseen concepts can grow the semantic dimension; the
/// index then rebuilds its tables from the stored per-record state so that
/// EmitBlocks always matches the batch blocker over the same records.
/// While the dimension is 0, as it always is without a semantic function,
/// a table is keyed by the band alone, as in the batch blocker. BulkLoad
/// computes every record's band keys and interpretation first, checks the
/// encoder once for the whole batch (the union of the batch's concepts
/// gives the encoder the per-record inserts end at) and then fills the
/// tables one table at a time, so it leaves the state of an Insert loop.
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
  void BulkLoad(data::RecordId first, const data::Dataset& dataset) override;
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
  using Entry = std::pair<const data::RecordId, RecordState>;
  struct BandScratch;  // the band computation's reusable buffers

  /// Writes the record's l band keys into `bands` (none for an empty
  /// text); the text and band buffers are `scratch`'s, reused from call
  /// to call.
  void Bands(std::span<const std::string_view> values, BandScratch* scratch,
             std::vector<uint64_t>* bands) const;
  /// Adds record `id`'s state to records_ and its concepts to
  /// seen_concepts_, without bucketing it.
  const Entry* Add(data::RecordId id, std::span<const std::string_view> values,
                   BandScratch* scratch);
  /// Rebuilds the encoder if concepts were added since seen_concepts_ held
  /// `seen` of them; if the dimension grew, redraws the tables' semhash
  /// functions and refills every table from records_. True if it refilled.
  bool GrowEncoder(size_t seen);
  /// The semantic signature of `zeta`; empty while the dimension is 0.
  core::SemSignature Encode(const std::vector<core::ConceptId>& zeta) const;
  /// Calls fn(key) for every key of table t that a record with band key
  /// `band` and semantic signature `sem` is bucketed under; `keys` is
  /// scratch.
  template <typename Fn>
  void ForEachTableKey(size_t t, uint64_t band, const core::SemSignature& sem,
                       std::vector<uint64_t>* keys, Fn fn) const;
  /// Buckets `entries` (ascending ids) one table at a time.
  void FillTables(std::span<const Entry* const> entries);

  core::LshParams params_;
  core::SemanticParams sem_params_;
  std::shared_ptr<const core::SemanticFunction> semantics_;  // null: lsh
  core::LshBander bander_;      // params_' q, k, l and seed
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
