#ifndef SABLOCK_INDEX_LSH_INDEX_H_
#define SABLOCK_INDEX_LSH_INDEX_H_

#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/lsh_blocker.h"
#include "core/minhash.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// Incremental minhash-LSH banding tables, the index-side counterpart of
/// core::LshBlocker, plain (`lsh`) and, given a semantic function,
/// semantic-aware (`sa-lsh`). A record's band keys are core::LshBander's
/// over its data::BlockingText, as in the batch band column, and
/// core::LshTableKeys turns them into each table's bucket keys.
///
/// Layout, all flat. A record with an empty text enters no table, as in
/// the batch blockers: its id maps to kNoSlot. Every other record holds a
/// dense slot: its id, l band keys, a live bit and its interpretation
/// (CSR). Each table is an immutable Base over slots plus a Delta of the
/// slots inserted since. Query probes both and skips dead slots;
/// EmitBlocks runs core::EmitLshTables, the batch blocker's table loop,
/// over the live slots in id order. Remove only clears the live bit; the
/// slot's state and table entries stay until the next compaction, which
/// renumbers the live slots in id order, rebuilds the bases and empties
/// the deltas. It runs when the dimension grows, or when the slots
/// inserted or removed since the last one exceed max(kCompactionFloor,
/// base slots / kCompactionDivisor): an insert-only load rebuilds each
/// record O(log n) times, and a large BulkLoad into an empty index builds
/// the bases directly.
///
/// The semhash features are the leaves under every concept ever inserted
/// (Algorithm 1), so a record with an unseen concept can grow the
/// dimension, which changes every key. While the dimension is 0, as it
/// always is without a semantic function, a table is keyed by the band
/// alone. BulkLoad checks the encoder once per batch, which reaches the
/// encoder an Insert loop ends at. Removals never un-select a feature, so
/// batch parity is guaranteed after inserts, not after removals.
class LshIndex : public IncrementalIndex {
 public:
  // A larger divisor keeps the delta, which costs more memory per record
  // than the base, smaller, at the price of more frequent rebuilds; the
  // floor keeps a small index from rebuilding every few inserts.
  static constexpr size_t kCompactionFloor = 256;
  static constexpr size_t kCompactionDivisor = 4;

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
  size_t size() const override { return slot_of_.size(); }

  /// Compactions so far, bulk loads and dimension growth included.
  size_t compactions() const { return compactions_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;  // also: no delta entry
  struct BandScratch;  // the band computation's reusable buffers
  using Entries = std::vector<std::pair<uint64_t, uint32_t>>;  // key, slot
  /// Slots [0, base_slots_) of one table: distinct keys ascending, and
  /// key i's slots, ascending, at slots[offsets[i], offsets[i + 1]). The
  /// keys whose top bits read p are keys[dir[p], dir[p + 1]).
  struct Base {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> slots;
    int shift = 63;  // the top bits are key >> shift
    std::vector<uint32_t> dir = {0, 0, 0};

    /// The base of `entries`, which it sorts.
    static Base Build(Entries* entries);
    /// The slots bucketed under `key`.
    std::span<const uint32_t> Find(uint64_t key) const;
  };
  /// The later slots of one table: each entry is a (slot, the key's next
  /// older entry or kNoSlot) pair.
  struct Delta {
    FlatMap<uint64_t, uint32_t> newest;  // key -> its newest entry
    std::vector<std::pair<uint32_t, uint32_t>> entries;
  };

  /// Writes the l band keys to scratch->bands; false for an empty text.
  bool Bands(std::span<const std::string_view> values,
             BandScratch* scratch) const;
  /// Gives record `id` the next slot (or kNoSlot) and its concepts to
  /// seen_concepts_, without bucketing it.
  void Add(data::RecordId id, std::span<const std::string_view> values,
           BandScratch* scratch);
  /// Buckets the slots from `from` on, added after seen_concepts_ held
  /// `seen` concepts: to the deltas, or by compacting.
  void Commit(size_t seen, uint32_t from);
  /// Rebuilds the encoder from seen_concepts_; true if its dimension grew.
  bool GrowEncoder(size_t seen);
  bool NeedsCompaction() const;
  void Compact();
  /// The live slots in record id order.
  std::vector<uint32_t> LiveSlots() const;
  /// The signatures of the slots from `from` on; none while dim is 0.
  std::vector<core::SemSignature> Signatures(uint32_t from) const;

  core::LshParams params_;
  core::SemanticParams sem_params_;
  std::shared_ptr<const core::SemanticFunction> semantics_;  // null: lsh
  core::LshBander bander_;      // params_' q, k, l and seed
  std::vector<int> positions_;  // the attributes' positions, set by Bind
  data::Schema schema_;         // the bound schema, for SemanticFunction
  bool bound_ = false;

  core::SemhashEncoder encoder_;  // built from seen_concepts_
  std::set<core::ConceptId> seen_concepts_;  // ever inserted, never shrinks
  core::LshTableKeys keys_;  // the tables' keys under encoder_'s dimension

  FlatMap<data::RecordId, uint32_t> slot_of_;  // live id -> slot or kNoSlot
  std::vector<data::RecordId> ids_;            // per slot
  std::vector<uint64_t> bands_;                // l keys per slot
  std::vector<bool> live_;                     // per slot; Remove clears
  std::vector<uint32_t> zeta_offsets_{0};  // slot s: zetas_[o[s], o[s + 1])
  std::vector<core::ConceptId> zetas_;

  std::vector<Base> bases_;    // per table
  std::vector<Delta> deltas_;  // per table; the slots from base_slots_ on
  uint32_t base_slots_ = 0;
  size_t dead_ = 0;  // slots removed since the last compaction
  size_t compactions_ = 0;
};

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_LSH_INDEX_H_
