#ifndef SABLOCK_INDEX_INCREMENTAL_INDEX_H_
#define SABLOCK_INDEX_INCREMENTAL_INDEX_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/block_sink.h"
#include "core/blocking.h"
#include "data/record.h"

namespace sablock::index {

/// A blocking technique reorganized as a mutable index: instead of one
/// batch pass over a frozen Dataset, records are inserted (and removed)
/// one at a time and "which records could match this one?" is answerable
/// at any point — the serving-side counterpart of core::BlockingTechnique.
///
/// Contract:
///  - Bind(schema) is called exactly once, before any other call; it
///    resolves attribute positions and reports missing required
///    attributes.
///  - Insert(id, values) indexes one record. `id` is assigned by the
///    caller (the CandidateService uses its insert count) and must be
///    fresh — ids are never reused, and inserts normally arrive in
///    increasing id order. `values` are borrowed for the call only: an
///    index copies whatever it keeps (band keys, tokens, sort keys) and
///    holds no view into the caller's buffers.
///  - BulkLoad(first, dataset) indexes record i of `dataset` under id
///    `first + i`, every id fresh. The state it leaves equals Insert of
///    the same records in id order, answers and blocks included; an index
///    may override the base Insert loop with a batch pass.
///  - Remove(id) un-indexes a record; returns false if `id` is not live.
///  - Query(values) returns the sorted distinct ids of the live records
///    that would share a block with the probe if it were inserted next.
///    The probe itself is NOT inserted.
///  - EmitBlocks(sink) streams the current blocks. Parity guarantee:
///    after Bind + Insert of every record of a dataset in id order, the
///    emitted blocks equal the blocks of the batch technique built from
///    the same spec string byte-identically, sequence included — the
///    golden index/batch parity test enforces this for every registered
///    index.
///  - An index may reorganize its storage inside Insert, BulkLoad and
///    Remove (LshIndex compacts its tables). That is invisible to the
///    contract: answers, blocks and size() depend only on the records
///    inserted and removed, never on when a reorganization ran.
///
/// Thread-safety: none. All methods, including Query and EmitBlocks,
/// must be externally serialized; service::CandidateService wraps an
/// index in a reader/writer lock (Query/EmitBlocks are const and take
/// the shared side — implementations must not mutate under const).
class IncrementalIndex {
 public:
  virtual ~IncrementalIndex() = default;

  /// Short identifier, e.g. "lsh-index(k=4,l=63)".
  virtual std::string name() const = 0;

  /// Binds the index to the record schema. Must be called exactly once,
  /// before any Insert/Remove/Query/EmitBlocks.
  virtual Status Bind(const data::Schema& schema) = 0;

  /// Indexes record `id` with the given attribute values (aligned with
  /// the bound schema). `id` must not be live.
  virtual void Insert(data::RecordId id,
                      std::span<const std::string_view> values) = 0;

  /// Indexes every record of `dataset` (aligned with the bound schema),
  /// record i under id `first + i`; equal to Insert in id order.
  virtual void BulkLoad(data::RecordId first, const data::Dataset& dataset);

  /// Un-indexes record `id`; false if it was not live.
  virtual bool Remove(data::RecordId id) = 0;

  /// Candidate ids for a probe record (sorted, distinct, excludes ids
  /// that are not live). The probe is not inserted.
  virtual std::vector<data::RecordId> Query(
      std::span<const std::string_view> values) const = 0;

  /// Streams the current blocks (deterministic order; see the parity
  /// guarantee above).
  virtual void EmitBlocks(core::BlockSink& sink) const = 0;

  /// Number of live (inserted and not removed) records.
  virtual size_t size() const = 0;
};

/// Bind's attribute resolver: the positions of `attributes`
/// (data::Schema::Positions), or an error naming the first one missing.
Status ResolveAttributes(const data::Schema& schema,
                         std::span<const std::string> attributes,
                         std::vector<int>* positions);

/// Equivalence bridge, batch side -> index side: binds `index` to the
/// dataset's schema and bulk-loads every record under its own id (Bind
/// plus BulkLoad(0, dataset)). Aborts on a Bind error (caller bug: the
/// spec's attributes must exist in the schema). After this, EmitBlocks
/// reproduces the batch technique.
void LoadDataset(IncrementalIndex& index, const data::Dataset& dataset);

}  // namespace sablock::index

#endif  // SABLOCK_INDEX_INCREMENTAL_INDEX_H_
