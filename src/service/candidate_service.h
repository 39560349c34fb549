#ifndef SABLOCK_SERVICE_CANDIDATE_SERVICE_H_
#define SABLOCK_SERVICE_CANDIDATE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "common/status.h"
#include "core/block_sink.h"
#include "core/budget.h"
#include "data/record.h"
#include "index/incremental_index.h"
#include "obs/metrics.h"
#include "service/protocol.h"

namespace sablock::service {

/// Append-only token-id column of a growing dataset, the scoring input of
/// CandidateService::QueryProgressive. Row r holds the sorted distinct ids
/// of the tokens of SplitWords(NormalizeForMatching(v)) over all of r's
/// values v, stored CSR-style as ids_[offsets_[r], offsets_[r + 1]) —
/// 4 bytes per distinct token plus 8 per row, no allocation per row.
/// Ids are dense in first-seen order; the dictionary's transparent hash
/// looks a token up by view, so a probe is tokenized and resolved without
/// building a string. Not synchronized: CandidateService appends under
/// its exclusive lock and reads under its shared one.
class TokenIdColumn {
 public:
  /// Interns the row's tokens and appends its id run as the next row.
  void Append(std::span<const std::string_view> values);

  /// Number of rows appended so far.
  size_t size() const { return offsets_.size() - 1; }

  /// Row `row`'s sorted distinct token ids.
  std::span<const uint32_t> Row(size_t row) const {
    return std::span<const uint32_t>(ids_).subspan(
        offsets_[row], offsets_[row + 1] - offsets_[row]);
  }

  /// Leaves the probe's sorted distinct known token ids in `*ids` and
  /// returns the size of its whole token set: tokens no row has are
  /// counted there but interned nowhere.
  size_t Lookup(std::span<const std::string_view> values,
                std::vector<uint32_t>* ids) const;

  /// Token Jaccard |P ∩ R| / |P ∪ R| of a probe P (its known ids and its
  /// token-set size, from Lookup) and a row R; 0 if either set is empty.
  static double Jaccard(std::span<const uint32_t> probe, size_t probe_size,
                        std::span<const uint32_t> row);

 private:
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      dictionary_;
  std::vector<size_t> offsets_ = {0};
  std::vector<uint32_t> ids_;
  std::string buffer_;  // Append's token scratch
};

/// Thread-safe candidate store: an incremental index and the records'
/// token-id column, behind one reader/writer lock; a record's id is its
/// insert position. Inserts take the exclusive side (they mutate both
/// together); queries, stats and block emission share the read side.
/// This is the in-process core the socket server (and the latency bench)
/// drive.
class CandidateService {
 public:
  /// Builds the service: creates the index from `index_spec` via the
  /// IndexRegistry and binds it to `schema`.
  static Status Make(data::Schema schema, const std::string& index_spec,
                     std::unique_ptr<CandidateService>* out);

  /// Indexes the record under the next id and returns that id. `values`
  /// must be aligned with schema(); they are borrowed for the call.
  data::RecordId Insert(std::span<const std::string_view> values);

  /// Bulk-inserts every record of `dataset` (schemas must match) under a
  /// single exclusive lock — the warm-start path for sablock_serve
  /// --snapshot, where per-record locking and per-insert histogram
  /// samples would only slow the startup down. Returns the number of
  /// records inserted.
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
  TokenIdColumn tokens_;  // one row per inserted record; guarded by mu_
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
