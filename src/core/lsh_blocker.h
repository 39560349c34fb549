#ifndef SABLOCK_CORE_LSH_BLOCKER_H_
#define SABLOCK_CORE_LSH_BLOCKER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "core/blocking.h"
#include "core/minhash.h"
#include "core/semantic.h"
#include "core/semhash.h"
#include "features/feature_store.h"

namespace sablock::core {

/// Parameters of the textual (minhash) part of the LSH blocking family:
/// l hash tables of k minhash functions each (Section 5.1, "amplifying").
/// The spec readers keep k·l within kMaxMinhashRows.
struct LshParams {
  int k = 4;                            ///< minhash functions per table
  int l = 63;                           ///< number of hash tables
  int q = 3;                            ///< q-gram size for shingling
  std::vector<std::string> attributes;  ///< attributes used for shingling
  uint64_t seed = 7;                    ///< hash-family seed
};

/// How a w-way semantic hash function combines its w semhash draws
/// (Section 5.2): AND requires all chosen features shared, OR at least one.
enum class SemanticMode { kAnd, kOr };

/// Parameters of the w-way semantic hash function augmenting each table.
struct SemanticParams {
  int w = 1;
  SemanticMode mode = SemanticMode::kOr;
  uint64_t seed = 11;
};

/// Minhash-LSH blocking: records whose k minhash values agree in at
/// least one of the l tables share a block. Built without a semantic
/// function it is the paper's "LSH" competitor; with one it is "SA-LSH",
/// the paper's contribution, where each table is augmented with a w-way
/// semantic hash function built from w randomly chosen semhash functions
/// (chosen per table, without replacement).
///
///  - AND mode: a record enters table t only if all w chosen semhash bits
///    are set — two records collide iff the pairwise w-way AND is true.
///  - OR mode: a record enters one sub-bucket per set bit among the w
///    chosen features — two records collide iff they share at least one
///    chosen set bit, exactly the pairwise w-way OR.
///
/// Records that are semantically dissimilar (no shared semantic feature)
/// can never be placed in the same block regardless of textual similarity
/// (Proposition 5.3) when w covers the full signature. While the semantic
/// dimension is 0 (always for plain LSH) a table is keyed by the band
/// alone. Records with no shingles (all-empty attributes) are excluded
/// from all tables.
///
/// Run reads the dataset's band-key column (FeatureStore::Bands: l keys
/// per record, computed by core::LshBander), so it builds neither the
/// k·l signature matrix nor the shingle column.
class LshBlocker : public BlockingTechnique {
 public:
  /// Plain LSH.
  explicit LshBlocker(LshParams params);
  /// Semantic-aware LSH.
  LshBlocker(LshParams lsh_params, SemanticParams sem_params,
             std::shared_ptr<const SemanticFunction> semantics);

  std::string name() const override;
  void Run(const data::Dataset& dataset, BlockSink& sink) const override;

  const LshParams& lsh_params() const { return lsh_params_; }

 private:
  LshParams lsh_params_;
  SemanticParams sem_params_;
  std::shared_ptr<const SemanticFunction> semantics_;  // null: plain LSH
};

/// The paper's SA-LSH: an LshBlocker built with a semantic function.
using SemanticAwareLshBlocker = LshBlocker;

/// The cached minhash signatures of a dataset under the given params — a
/// handle into the dataset's FeatureStore, computed on first request and
/// shared by the blockers (and engine shards) that read whole signature
/// rows under the same (attributes, q, k·l, seed): `forest` in src/.
/// Row(id) is record id's k·l values. lsh and sa-lsh read band keys
/// instead (FeatureStore::Bands).
features::FeatureView::Handle<features::SignatureColumn> MinhashSignatures(
    const data::Dataset& dataset, const LshParams& params);

// ----------------------------------------------------------------------
// Bucketing primitives shared between the batch blockers above and the
// incremental LSH/SA-LSH indexes (src/index/). Both sides MUST place a
// record in exactly the same buckets for the index/batch parity guarantee
// to hold, so the bucket-key computation lives here and in
// core::LshBander (core/minhash.h), once.

/// The w semhash functions (feature indices) table `table` draws under
/// `params`, for a semantic dimension of `dim` features. w is clamped to
/// dim. This is the per-table random draw of Section 5.2, deterministic
/// in (seed, table, dim).
std::vector<size_t> SemanticTableChoices(const SemanticParams& params,
                                         uint32_t dim, int table);

/// The bucket keys of l tables under a semantic dimension `dim`: the band
/// key alone while it is 0, else table t's SemanticTableChoices draw gates
/// it (AND: all drawn bits set) or splits it (OR: one key per set bit).
class LshTableKeys {
 public:
  LshTableKeys(const SemanticParams& params, uint32_t dim, int l);

  size_t tables() const { return chosen_.size(); }
  /// Sets `keys` to table t's keys for band key `band` and signature
  /// `sem` (null while the dimension is 0).
  void Keys(size_t t, uint64_t band, const SemSignature* sem,
            std::vector<uint64_t>* keys) const;

 private:
  SemanticParams params_;
  uint32_t dim_;
  std::vector<std::vector<size_t>> chosen_;  // per table; none while dim_ 0
};

// ----------------------------------------------------------------------
// Batch bucketing of the LSH-family blockers (lsh, sa-lsh, mp-lsh).

/// One hash table's bucketing, shared by lsh, sa-lsh and mp-lsh: the
/// caller adds the table's (key, id) entries to one flat array, ids in
/// non-decreasing order, and EmitTable groups them through a FlatMap with
/// a counting scatter — no per-bucket allocation, ids ascending within a
/// bucket — and emits the buckets of two or more records in canonical
/// content order (BlockCollection::SortBlocks', as the LSH indexes do),
/// each a span over the scatter array. Tables are bucketed one at a time,
/// reusing the scratch.
class LshBuckets {
 public:
  void Add(uint64_t key, data::RecordId id) { entries_.push_back({key, id}); }

  /// Emits the buckets of >= 2 records added since the last call until
  /// the sink reports Done, then starts the next table empty.
  void EmitTable(BlockSink& sink);

 private:
  struct Entry {
    uint64_t key;  // bucket key; EmitTable reuses it for the bucket index
    data::RecordId id;
  };
  std::vector<Entry> entries_;
  FlatMap<uint64_t, uint32_t> bucket_of_;
  std::vector<uint32_t> sizes_;  // per bucket, in first-encounter order
  std::vector<uint32_t> ends_;   // per kept bucket: one past its last id
  std::vector<uint32_t> kept_;   // buckets of >= 2 records
  std::vector<data::RecordId> ids_;
};

/// The table loop of lsh and sa-lsh, with two callers so that they emit
/// the same blocks by construction: LshBlocker::Run over the band column
/// and index::LshIndex::EmitBlocks over its live records. Records ids[i]
/// (ascending) have band keys at row rows[i] of `bands`, l keys per row,
/// and signature sems[rows[i]] (none while the dimension is 0). Each
/// table in turn buckets them by LshTableKeys and LshBuckets emits it,
/// until the sink reports Done.
void EmitLshTables(const LshTableKeys& keys, std::span<const uint64_t> bands,
                   std::span<const SemSignature> sems,
                   std::span<const uint32_t> rows,
                   std::span<const data::RecordId> ids, BlockSink& sink);

}  // namespace sablock::core

#endif  // SABLOCK_CORE_LSH_BLOCKER_H_
