#ifndef SABLOCK_SERVICE_CANDIDATE_SERVICE_H_
#define SABLOCK_SERVICE_CANDIDATE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/block_sink.h"
#include "core/budget.h"
#include "data/record.h"
#include "features/token_column.h"
#include "index/incremental_index.h"
#include "obs/metrics.h"
#include "service/protocol.h"

namespace sablock::service {

/// Thread-safe candidate store: an incremental index and the records'
/// features::TokenColumn (one row per record over all of its values, the
/// scoring input of QueryProgressive), behind one reader/writer lock; a
/// record's id is its insert position. Inserts take the exclusive side
/// (they mutate both together); queries, stats and block emission share
/// the read side. This is the in-process core the socket server (and the
/// latency bench) drive.
class CandidateService {
 public:
  /// Builds the service: creates the index from `index_spec` via the
  /// IndexRegistry and binds it to `schema`.
  static Status Make(data::Schema schema, const std::string& index_spec,
                     std::unique_ptr<CandidateService>* out);

  /// Indexes the record under the next id and returns that id. `values`
  /// must be aligned with schema(); they are borrowed for the call.
  data::RecordId Insert(std::span<const std::string_view> values);

  /// Indexes every record of `dataset` (schemas must match) under the
  /// next ids, as an Insert loop would, through one
  /// IncrementalIndex::BulkLoad under a single exclusive lock: the warm
  /// start of sablock_serve (--snapshot and --preload), with no
  /// per-record locking or per-insert histogram sample. Returns the
  /// number of records inserted.
  size_t Preload(const data::Dataset& dataset);

  /// Candidate ids for a probe (see IncrementalIndex::Query).
  std::vector<data::RecordId> Query(
      std::span<const std::string_view> values) const;

  /// One scored candidate of a progressive query: a record the probe
  /// should be compared against, with the serving-side priority score
  /// (Jaccard of the probe's and the stored row's normalized token sets;
  /// higher = likelier).
  struct ScoredCandidate {
    data::RecordId id = 0;
    double score = 0.0;
  };

  /// Budget-aware query: ranks the index's candidates for the probe
  /// best-first and returns at most `budget.pairs` of them (a pair here
  /// is one probe-vs-record comparison), stopping early on a `seconds`
  /// deadline. `recall-target` budgets are eval-only and rejected. Order
  /// is deterministic: score descending, id ascending on ties.
  Status QueryProgressive(std::span<const std::string_view> values,
                          const core::Budget& budget,
                          std::vector<ScoredCandidate>* out) const;

  /// Un-indexes a record; false if not live. Its id stays taken (ids are
  /// append-only positions), it just stops matching probes.
  bool Remove(data::RecordId id);

  /// Streams the index's current blocks into `sink`.
  void EmitBlocks(core::BlockSink& sink) const;

  ServiceStats stats() const;

  const data::Schema& schema() const { return schema_; }

 private:
  CandidateService(data::Schema schema,
                   std::unique_ptr<index::IncrementalIndex> idx);

  data::Schema schema_;
  mutable std::shared_mutex mu_;
  std::unique_ptr<index::IncrementalIndex> index_;  // guarded by mu_
  features::TokenColumn tokens_;  // row = record id; guarded by mu_
  std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> queries_{0};  // counted in const Query
  std::atomic<uint64_t> removes_{0};
  // Per-index latency families, labeled by the bound index's name and
  // resolved once at construction (registry pointers are stable).
  obs::Histogram* insert_seconds_;
  obs::Histogram* query_seconds_;
};

}  // namespace sablock::service

#endif  // SABLOCK_SERVICE_CANDIDATE_SERVICE_H_
