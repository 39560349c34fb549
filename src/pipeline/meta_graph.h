#ifndef SABLOCK_PIPELINE_META_GRAPH_H_
#define SABLOCK_PIPELINE_META_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/blocking.h"

namespace sablock::pipeline {

/// Edge-weighting schemes of the meta-blocking paper (Papadakis et al.,
/// TKDE 2014). The blocking graph has one node per record and one edge
/// per record pair sharing at least one block.
enum class MetaWeighting {
  kArcs,  ///< Σ over common blocks of 1 / ||b|| (reciprocal comparisons)
  kCbs,   ///< number of common blocks
  kEcbs,  ///< CBS · log(|B|/|B_i|) · log(|B|/|B_j|)
  kJs,    ///< Jaccard of the two records' block sets
  kEjs,   ///< JS · log(|E|/|v_i|) · log(|E|/|v_j|)
};

/// Pruning algorithms of the meta-blocking paper.
enum class MetaPruning {
  kWep,  ///< weighted edge pruning: keep edges >= global mean weight
  kCep,  ///< cardinality edge pruning: keep top-K edges, K = ⌊Σ|b|/2⌋
  kWnp,  ///< weighted node pruning: keep edges >= a node-local mean
  kCnp,  ///< cardinality node pruning: per-node top-k, k = ⌊Σ|b|/|V|⌋
};

const char* MetaWeightingName(MetaWeighting w);
const char* MetaPruningName(MetaPruning p);

/// One edge of the blocking graph: a packed record pair and its weight.
/// `key` is (uint64(min_id) << 32) | max_id, so sorting by key sorts by
/// (a, b) — the canonical pair order used everywhere weights are ranked.
struct WeightedPair {
  uint64_t key = 0;
  double weight = 0.0;

  uint32_t a() const { return static_cast<uint32_t>(key >> 32); }
  uint32_t b() const { return static_cast<uint32_t>(key & 0xffffffffULL); }
};

/// The edge ranking every best-first consumer of the blocking graph
/// shares: heavier edges first, ties broken by ascending pair key. Keys
/// are unique per graph, so this is a strict total order and any top-K
/// under it is unique.
inline bool RanksBefore(const WeightedPair& x, const WeightedPair& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  return x.key < y.key;
}

/// The weighting phase of meta-blocking as a first-class API: builds the
/// blocking graph of `input` (record ids in [0, num_records)) and returns
/// every distinct edge with its weight under `weighting`, one entry per
/// pair: the graph MetaPrune prunes, materialized, so progressive
/// schedulers (and any future learned pruning) can rank the same
/// per-pair weights without committing to a pruning algorithm. MetaPrune
/// itself never materializes it.
///
/// Cost contract: one node-centric dense sweep. A record→block index is
/// built once; then, for each record x in ascending order, CBS and ARCS
/// of every co-member y > x accumulate in dense per-record arrays. Time
/// is O(Σ|b| + comparisons) — one array update per comparison of the
/// input, no hashing — plus a counting pass of the same shape for EJS's
/// degrees. Memory is O(records + Σ|b|) besides the returned edges.
/// Edges come grouped by smaller endpoint ascending, then in first
/// co-occurrence order; weights are bit-identical to summing each pair's
/// blocks in input block order.
std::vector<WeightedPair> WeightPairs(size_t num_records,
                                      const core::BlockCollection& input,
                                      MetaWeighting weighting);

/// The best `k` edges of the blocking graph under RanksBefore, sorted —
/// exactly the first `k` entries of WeightPairs sorted by RanksBefore
/// (all of them when the graph has fewer). The same sweep as WeightPairs
/// feeds a bounded selection instead of a materialized edge list: a
/// buffer compacted to the best k with nth_element whenever it reaches
/// 2k, after which every edge not ranking ahead of the current k-th is
/// skipped. Time O(comparisons + K log K), memory O(records + Σ|b| + K).
/// This is the one top-K-edges implementation: CEP pruning and the
/// budgeted `ew-*` progressive schedulers both call it.
std::vector<WeightedPair> TopWeightedPairs(size_t num_records,
                                           const core::BlockCollection& input,
                                           MetaWeighting weighting,
                                           uint64_t k);

/// The graph phase of meta-blocking, reusable by any pipeline: builds the
/// blocking graph of `input` (whose record ids must lie in
/// [0, num_records)), weights its edges, prunes, and streams the retained
/// comparisons into `sink` as 2-record blocks, polling sink.Done() before
/// each and stopping once it is set. Deterministic for a given input
/// block order.
///
/// Cost contract: no pruning keeps an edge list. WEP and WNP run two
/// sweeps of the node index, sharing the weighting's per-record factors:
/// the first folds the global weight sum (WEP) or each node's weight sum
/// and degree (WNP) in sweep order, the second recomputes every weight
/// with the same expression and emits the survivors in sweep order. CNP
/// keeps a per-node top-k during one sweep, then emits the union sorted
/// by key. Memory is O(records + Σ|b|) for these three; CEP keeps
/// TopWeightedPairs(K = ⌊Σ|b|/2⌋) and emits it in rank order, so it adds
/// O(K) and its kept set is fixed even when weights tie.
void MetaPrune(size_t num_records, const core::BlockCollection& input,
               MetaWeighting weighting, MetaPruning pruning,
               core::BlockSink& sink);

}  // namespace sablock::pipeline

#endif  // SABLOCK_PIPELINE_META_GRAPH_H_
