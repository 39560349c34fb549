#include "pipeline/meta_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace sablock::pipeline {

const char* MetaWeightingName(MetaWeighting w) {
  switch (w) {
    case MetaWeighting::kArcs: return "ARCS";
    case MetaWeighting::kCbs: return "CBS";
    case MetaWeighting::kEcbs: return "ECBS";
    case MetaWeighting::kJs: return "JS";
    case MetaWeighting::kEjs: return "EJS";
  }
  return "?";
}

const char* MetaPruningName(MetaPruning p) {
  switch (p) {
    case MetaPruning::kWep: return "WEP";
    case MetaPruning::kCep: return "CEP";
    case MetaPruning::kWnp: return "WNP";
    case MetaPruning::kCnp: return "CNP";
  }
  return "?";
}

namespace {

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// The blocking graph in node-centric form: every block's members sorted
/// and concatenated, plus a record→block index (CSR) with one entry per
/// membership. An entry points just past the record's position in its
/// sorted block, so walking [next, end) visits exactly the co-members at
/// later positions — each comparison of the input is visited once, from
/// its smaller endpoint, and duplicate ids inside a block contribute once
/// per position pair, as the block's own pair enumeration would.
class NodeIndex {
 public:
  NodeIndex(size_t num_records, const core::BlockCollection& input)
      : num_blocks_(input.NumBlocks()),
        record_blocks_(num_records, 0),
        offsets_(num_records + 1, 0) {
    members_.reserve(input.TotalBlockSizes());
    inv_comparisons_.reserve(input.NumBlocks());
    for (core::Block b : input.blocks()) {
      const double comparisons = static_cast<double>(b.size()) *
                                 (static_cast<double>(b.size()) - 1) / 2.0;
      inv_comparisons_.push_back(1.0 / comparisons);
      const size_t begin = members_.size();
      members_.insert(members_.end(), b.begin(), b.end());
      std::sort(members_.begin() + static_cast<ptrdiff_t>(begin),
                members_.end());
      for (data::RecordId id : b) ++record_blocks_[id];
    }
    for (size_t i = 0; i < num_records; ++i) {
      offsets_[i + 1] = offsets_[i] + record_blocks_[i];
    }
    // Filling in block order keeps every record's entries in ascending
    // block order, so per-edge sums add up in the input's block order.
    entries_.resize(members_.size());
    std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    size_t begin = 0;
    for (uint32_t block = 0; block < num_blocks_; ++block) {
      const size_t end = begin + input.blocks()[block].size();
      for (size_t p = begin; p < end; ++p) {
        entries_[cursor[members_[p]]++] = {p + 1, end, block};
      }
      begin = end;
    }
  }

  size_t num_records() const { return record_blocks_.size(); }
  size_t num_blocks() const { return num_blocks_; }

  /// |B_i|: block memberships of each record (with multiplicity).
  const std::vector<uint32_t>& record_blocks() const { return record_blocks_; }

  /// Returns the number of distinct edges |E| and, when `degree` is set,
  /// counts each record's distinct neighbours |v_i| into it.
  uint64_t CountEdges(std::vector<uint32_t>* degree = nullptr) const {
    const size_t n = num_records();
    if (degree != nullptr) degree->assign(n, 0);
    // last_seen[y] == x + 1 once edge (x, y) was counted.
    std::vector<uint32_t> last_seen(n, 0);
    uint64_t edges = 0;
    for (uint32_t x = 0; x < n; ++x) {
      for (size_t e = offsets_[x]; e < offsets_[x + 1]; ++e) {
        for (size_t p = entries_[e].next; p < entries_[e].end; ++p) {
          const uint32_t y = members_[p];
          if (y == x || last_seen[y] == x + 1) continue;
          last_seen[y] = x + 1;
          ++edges;
          if (degree != nullptr) {
            ++(*degree)[x];
            ++(*degree)[y];
          }
        }
      }
    }
    return edges;
  }

  /// The dense sweep: for each record x in ascending order, accumulates
  /// CBS (and ARCS when kArcs) for every co-member y > x in per-record
  /// arrays, then calls visit(x, y, cbs, arcs) once per distinct edge, in
  /// first-co-occurrence order of y. Stops as soon as visit returns false.
  template <bool kArcs, typename Visit>
  void Sweep(Visit&& visit) const {
    const size_t n = num_records();
    std::vector<uint32_t> cbs(n, 0);
    std::vector<double> arcs(kArcs ? n : 0, 0.0);
    std::vector<uint32_t> touched;
    for (uint32_t x = 0; x < n; ++x) {
      for (size_t e = offsets_[x]; e < offsets_[x + 1]; ++e) {
        const Entry& entry = entries_[e];
        for (size_t p = entry.next; p < entry.end; ++p) {
          const uint32_t y = members_[p];
          if (y == x) continue;
          if (cbs[y]++ == 0) touched.push_back(y);
          if constexpr (kArcs) arcs[y] += inv_comparisons_[entry.block];
        }
      }
      for (uint32_t y : touched) {
        bool more;
        if constexpr (kArcs) {
          more = visit(x, y, cbs[y], arcs[y]);
          arcs[y] = 0.0;
        } else {
          more = visit(x, y, cbs[y], 0.0);
        }
        cbs[y] = 0;
        if (!more) return;
      }
      touched.clear();
    }
  }

 private:
  struct Entry {
    size_t next;     // first member position after this membership
    size_t end;      // one past the block's last member position
    uint32_t block;  // index into inv_comparisons_
  };

  size_t num_blocks_;
  std::vector<uint32_t> record_blocks_;
  std::vector<size_t> offsets_;
  std::vector<Entry> entries_;
  std::vector<data::RecordId> members_;
  std::vector<double> inv_comparisons_;
};

/// A weighting bound to one graph. The per-record factors — ECBS's
/// log(|B|/|B_i|), EJS's log(|E|/|v_i|) after one CountEdges pass — are
/// computed once here, so every sweep over the same EdgeWeights evaluates
/// each weight with the same expression on the same operands: the two
/// sweeps of WEP and WNP see bit-identical weights.
class EdgeWeights {
 public:
  EdgeWeights(const NodeIndex& graph, MetaWeighting weighting)
      : graph_(graph), weighting_(weighting) {
    const std::vector<uint32_t>& record_blocks = graph.record_blocks();
    const size_t n = graph.num_records();
    if (weighting == MetaWeighting::kEcbs) {
      const double num_blocks =
          std::max<double>(static_cast<double>(graph.num_blocks()), 1.0);
      idf_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        idf_[i] = std::log(num_blocks / record_blocks[i]);
      }
    } else if (weighting == MetaWeighting::kEjs) {
      std::vector<uint32_t> degree;
      const double num_edges = std::max<double>(
          static_cast<double>(graph.CountEdges(&degree)), 1.0);
      idf_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        idf_[i] = std::log(num_edges / std::max<double>(degree[i], 1.0));
      }
    }
  }

  /// Runs one sweep and calls emit(x, y, weight) once per distinct edge
  /// (x < y): grouped by x ascending, then in first co-occurrence order.
  /// The weight expressions (and their evaluation order) are the
  /// meta-blocking paper's; hoisting the log factors out of the edge loop
  /// leaves every weight bit-for-bit unchanged. Stops as soon as emit
  /// returns false.
  template <typename Emit>
  void ForEachEdge(Emit&& emit) const {
    const std::vector<uint32_t>& record_blocks = graph_.record_blocks();
    const std::vector<double>& idf = idf_;
    auto jaccard = [&](uint32_t x, uint32_t y, uint32_t common) {
      const double cbs = common;
      return cbs / (record_blocks[x] + record_blocks[y] - cbs);
    };
    switch (weighting_) {
      case MetaWeighting::kArcs:
        graph_.Sweep<true>([&](uint32_t x, uint32_t y, uint32_t, double arcs) {
          return emit(x, y, arcs);
        });
        return;
      case MetaWeighting::kCbs:
        graph_.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
          return emit(x, y, static_cast<double>(cbs));
        });
        return;
      case MetaWeighting::kEcbs:
        graph_.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
          return emit(x, y, static_cast<double>(cbs) * idf[x] * idf[y]);
        });
        return;
      case MetaWeighting::kJs:
        graph_.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
          return emit(x, y, jaccard(x, y, cbs));
        });
        return;
      case MetaWeighting::kEjs:
        graph_.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
          return emit(x, y, jaccard(x, y, cbs) * idf[x] * idf[y]);
        });
        return;
    }
  }

 private:
  const NodeIndex& graph_;
  MetaWeighting weighting_;
  std::vector<double> idf_;  // ECBS and EJS only
};

/// Bounded top-K selection under RanksBefore: buffers candidates, and
/// whenever the buffer reaches 2K compacts it to the best K with
/// nth_element; the K-th survivor then rejects every later edge that does
/// not rank ahead of it. O(E) offers, O(K) memory, O(K log K) final sort.
/// Requires k >= 1.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Offer(const WeightedPair& e) {
    if (compacted_ && !RanksBefore(e, kth_)) return;
    buffer_.push_back(e);
    if (buffer_.size() >= 2 * k_) Compact();
  }

  std::vector<WeightedPair> Take() && {
    if (buffer_.size() > k_) Compact();
    std::sort(buffer_.begin(), buffer_.end(), RanksBefore);
    return std::move(buffer_);
  }

 private:
  void Compact() {
    std::nth_element(buffer_.begin(),
                     buffer_.begin() + static_cast<ptrdiff_t>(k_ - 1),
                     buffer_.end(), RanksBefore);
    buffer_.resize(k_);
    kth_ = buffer_.back();
    compacted_ = true;
  }

  size_t k_;
  std::vector<WeightedPair> buffer_;
  WeightedPair kth_;
  bool compacted_ = false;
};

/// CNP's per-node selection: for every node, the best k of its incident
/// edges under std::greater<> on (weight, key) — the order a per-node
/// partial_sort of (weight, key) pairs would use — kept as a k-slot
/// min-heap while one sweep offers each edge to both endpoints. Memory is
/// n·k entries, at most max(n, Σ|b|) for CNP's k = max(1, ⌊Σ|b|/n⌋).
class NodeTopK {
 public:
  NodeTopK(size_t num_records, size_t k)
      : k_(k), count_(num_records, 0), slots_(num_records * k) {}

  void Offer(uint32_t node, double weight, uint64_t key) {
    const Entry e{weight, key};
    Entry* heap = slots_.data() + static_cast<size_t>(node) * k_;
    uint32_t& count = count_[node];
    if (count < k_) {
      heap[count++] = e;
      std::push_heap(heap, heap + count, std::greater<>());
    } else if (heap[0] < e) {
      std::pop_heap(heap, heap + k_, std::greater<>());
      heap[k_ - 1] = e;
      std::push_heap(heap, heap + k_, std::greater<>());
    }
  }

  /// The union of every node's kept edges, ascending by key.
  std::vector<uint64_t> SortedUnion() const {
    std::vector<uint64_t> keys;
    for (size_t node = 0; node < count_.size(); ++node) {
      const Entry* heap = slots_.data() + node * k_;
      for (uint32_t i = 0; i < count_[node]; ++i) {
        keys.push_back(heap[i].second);
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

 private:
  using Entry = std::pair<double, uint64_t>;  // (weight, key)

  size_t k_;
  std::vector<uint32_t> count_;
  std::vector<Entry> slots_;  // node i's heap at [i·k, i·k + count_[i])
};

/// Emits one retained comparison as a 2-record block from the stack,
/// polling Done() first as BlockCollection::Drain does. False once the
/// sink is done.
bool EmitPair(uint32_t a, uint32_t b, core::BlockSink& sink) {
  if (sink.Done()) return false;
  const data::RecordId pair[] = {a, b};
  sink.Consume(pair);
  return true;
}

}  // namespace

std::vector<WeightedPair> WeightPairs(size_t num_records,
                                      const core::BlockCollection& input,
                                      MetaWeighting weighting) {
  const NodeIndex graph(num_records, input);
  std::vector<WeightedPair> weighted;
  weighted.reserve(graph.CountEdges());  // exact: no growth copies
  const EdgeWeights weights(graph, weighting);
  weights.ForEachEdge([&](uint32_t x, uint32_t y, double weight) {
    weighted.push_back({PairKey(x, y), weight});
    return true;
  });
  return weighted;
}

std::vector<WeightedPair> TopWeightedPairs(size_t num_records,
                                           const core::BlockCollection& input,
                                           MetaWeighting weighting,
                                           uint64_t k) {
  // Every edge is some comparison, so a K at or past the comparison count
  // cannot prune: materialize and sort instead of buffering.
  if (k >= input.TotalComparisons()) {
    std::vector<WeightedPair> all = WeightPairs(num_records, input, weighting);
    std::sort(all.begin(), all.end(), RanksBefore);
    return all;
  }
  if (k == 0) return {};
  const NodeIndex graph(num_records, input);
  TopK top(static_cast<size_t>(k));
  const EdgeWeights weights(graph, weighting);
  weights.ForEachEdge([&](uint32_t x, uint32_t y, double weight) {
    top.Offer({PairKey(x, y), weight});
    return true;
  });
  return std::move(top).Take();
}

void MetaPrune(size_t num_records, const core::BlockCollection& input,
               MetaWeighting weighting, MetaPruning pruning,
               core::BlockSink& sink) {
  if (pruning == MetaPruning::kCep) {
    for (const WeightedPair& e :
         TopWeightedPairs(num_records, input, weighting,
                          input.TotalBlockSizes() / 2)) {
      if (!EmitPair(e.a(), e.b(), sink)) return;
    }
    return;
  }

  const NodeIndex graph(num_records, input);
  const EdgeWeights weights(graph, weighting);
  switch (pruning) {
    case MetaPruning::kWep: {
      // Sweep 1 folds the global mean left to right in sweep order; sweep
      // 2 keeps every edge at or above it.
      double total_weight = 0.0;
      uint64_t num_edges = 0;
      weights.ForEachEdge([&](uint32_t, uint32_t, double weight) {
        total_weight += weight;
        ++num_edges;
        return true;
      });
      const double mean =
          num_edges == 0 ? 0.0 : total_weight / static_cast<double>(num_edges);
      weights.ForEachEdge([&](uint32_t x, uint32_t y, double weight) {
        return weight >= mean ? EmitPair(x, y, sink) : true;
      });
      return;
    }
    case MetaPruning::kCep:
      return;  // handled above
    case MetaPruning::kWnp: {
      // Node-local mean thresholds: sweep 1 folds each node's weight sum
      // in sweep order and counts its degree |v_i|; sweep 2 keeps an edge
      // that clears the threshold of either endpoint (the union of the
      // node-centric retained sets).
      std::vector<double> threshold(num_records, 0.0);
      std::vector<uint32_t> degree(num_records, 0);
      weights.ForEachEdge([&](uint32_t x, uint32_t y, double weight) {
        threshold[x] += weight;
        threshold[y] += weight;
        ++degree[x];
        ++degree[y];
        return true;
      });
      for (size_t i = 0; i < num_records; ++i) {
        if (degree[i] > 0) threshold[i] /= degree[i];
      }
      weights.ForEachEdge([&](uint32_t x, uint32_t y, double weight) {
        const bool kept = weight >= threshold[x] || weight >= threshold[y];
        return kept ? EmitPair(x, y, sink) : true;
      });
      return;
    }
    case MetaPruning::kCnp: {
      // Each node keeps its top-k incident edges; the union is emitted in
      // a canonical (sorted) order rather than sweep order, so the output
      // is platform-independent.
      const size_t k = static_cast<size_t>(
          std::max<uint64_t>(1, input.TotalBlockSizes() /
                                    std::max<size_t>(num_records, 1)));
      NodeTopK top(num_records, k);
      weights.ForEachEdge([&](uint32_t x, uint32_t y, double weight) {
        top.Offer(x, weight, PairKey(x, y));
        top.Offer(y, weight, PairKey(x, y));
        return true;
      });
      for (uint64_t key : top.SortedUnion()) {
        if (!EmitPair(static_cast<uint32_t>(key >> 32),
                      static_cast<uint32_t>(key & 0xffffffffULL), sink)) {
          return;
        }
      }
      return;
    }
  }
}

}  // namespace sablock::pipeline
