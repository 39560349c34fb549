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
    const std::vector<core::Block>& blocks = input.blocks();
    members_.reserve(input.TotalBlockSizes());
    inv_comparisons_.reserve(blocks.size());
    for (const core::Block& b : blocks) {
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
    for (uint32_t block = 0; block < blocks.size(); ++block) {
      const size_t end = begin + blocks[block].size();
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
  /// first-co-occurrence order of y.
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
        if constexpr (kArcs) {
          visit(x, y, cbs[y], arcs[y]);
          arcs[y] = 0.0;
        } else {
          visit(x, y, cbs[y], 0.0);
        }
        cbs[y] = 0;
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

/// Runs the sweep under `weighting` and calls emit(key, weight) once per
/// distinct edge. The weight expressions (and their evaluation order) are
/// the meta-blocking paper's; per-record log factors are hoisted out of
/// the edge loop, which leaves every weight bit-for-bit unchanged.
template <typename Emit>
void ForEachWeightedEdge(const NodeIndex& graph, MetaWeighting weighting,
                         Emit&& emit) {
  const std::vector<uint32_t>& record_blocks = graph.record_blocks();
  const size_t n = graph.num_records();
  const double num_blocks =
      std::max<double>(static_cast<double>(graph.num_blocks()), 1.0);
  auto jaccard = [&](uint32_t x, uint32_t y, uint32_t common) {
    const double cbs = common;
    return cbs / (record_blocks[x] + record_blocks[y] - cbs);
  };
  switch (weighting) {
    case MetaWeighting::kArcs:
      graph.Sweep<true>([&](uint32_t x, uint32_t y, uint32_t, double arcs) {
        emit(PairKey(x, y), arcs);
      });
      return;
    case MetaWeighting::kCbs:
      graph.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
        emit(PairKey(x, y), static_cast<double>(cbs));
      });
      return;
    case MetaWeighting::kEcbs: {
      std::vector<double> idf(n);
      for (size_t i = 0; i < n; ++i) {
        idf[i] = std::log(num_blocks / record_blocks[i]);
      }
      graph.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
        emit(PairKey(x, y), static_cast<double>(cbs) * idf[x] * idf[y]);
      });
      return;
    }
    case MetaWeighting::kJs:
      graph.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
        emit(PairKey(x, y), jaccard(x, y, cbs));
      });
      return;
    case MetaWeighting::kEjs: {
      std::vector<uint32_t> degree;
      const double num_edges = std::max<double>(
          static_cast<double>(graph.CountEdges(&degree)), 1.0);
      std::vector<double> idf(n);
      for (size_t i = 0; i < n; ++i) {
        idf[i] = std::log(num_edges / std::max<double>(degree[i], 1.0));
      }
      graph.Sweep<false>([&](uint32_t x, uint32_t y, uint32_t cbs, double) {
        emit(PairKey(x, y), jaccard(x, y, cbs) * idf[x] * idf[y]);
      });
      return;
    }
  }
}

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

}  // namespace

std::vector<WeightedPair> WeightPairs(size_t num_records,
                                      const core::BlockCollection& input,
                                      MetaWeighting weighting) {
  const NodeIndex graph(num_records, input);
  std::vector<WeightedPair> weighted;
  weighted.reserve(graph.CountEdges());  // exact: no growth copies
  ForEachWeightedEdge(graph, weighting, [&](uint64_t key, double weight) {
    weighted.push_back({key, weight});
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
  ForEachWeightedEdge(graph, weighting, [&](uint64_t key, double weight) {
    top.Offer({key, weight});
  });
  return std::move(top).Take();
}

core::BlockCollection MetaPrune(size_t num_records,
                                const core::BlockCollection& input,
                                MetaWeighting weighting,
                                MetaPruning pruning) {
  core::BlockCollection out;
  if (pruning == MetaPruning::kCep) {
    for (const WeightedPair& e :
         TopWeightedPairs(num_records, input, weighting,
                          input.TotalBlockSizes() / 2)) {
      out.Add({e.a(), e.b()});
    }
    return out;
  }

  std::vector<WeightedPair> weighted =
      WeightPairs(num_records, input, weighting);
  const double num_edges =
      std::max<double>(static_cast<double>(weighted.size()), 1.0);
  double total_weight = 0.0;
  for (const WeightedPair& e : weighted) total_weight += e.weight;

  // Node degrees |v_i| (distinct co-occurring records), used by the
  // node-centric prunings' thresholds.
  std::vector<uint32_t> degree(num_records, 0);
  for (const WeightedPair& e : weighted) {
    ++degree[e.a()];
    ++degree[e.b()];
  }

  std::vector<uint64_t> kept;
  switch (pruning) {
    case MetaPruning::kWep: {
      double mean = weighted.empty() ? 0.0 : total_weight / num_edges;
      for (const WeightedPair& e : weighted) {
        if (e.weight >= mean) kept.push_back(e.key);
      }
      break;
    }
    case MetaPruning::kCep:
      break;  // handled above
    case MetaPruning::kWnp: {
      // Node-local mean thresholds; keep an edge if it clears the threshold
      // of either endpoint (the union of the node-centric retained sets).
      std::vector<double> sum(num_records, 0.0);
      for (const WeightedPair& e : weighted) {
        sum[e.a()] += e.weight;
        sum[e.b()] += e.weight;
      }
      for (const WeightedPair& e : weighted) {
        double thr_a = degree[e.a()] > 0 ? sum[e.a()] / degree[e.a()] : 0.0;
        double thr_b = degree[e.b()] > 0 ? sum[e.b()] / degree[e.b()] : 0.0;
        if (e.weight >= thr_a || e.weight >= thr_b) kept.push_back(e.key);
      }
      break;
    }
    case MetaPruning::kCnp: {
      size_t k = static_cast<size_t>(
          std::max<uint64_t>(1, input.TotalBlockSizes() /
                                    std::max<size_t>(num_records, 1)));
      // Gather each node's incident edges, keep its top-k, union them.
      std::vector<std::vector<std::pair<double, uint64_t>>> incident(
          num_records);
      for (const WeightedPair& e : weighted) {
        incident[e.a()].emplace_back(e.weight, e.key);
        incident[e.b()].emplace_back(e.weight, e.key);
      }
      for (auto& inc : incident) {
        size_t keep = std::min(k, inc.size());
        if (keep == 0) continue;
        std::partial_sort(inc.begin(),
                          inc.begin() + static_cast<ptrdiff_t>(keep),
                          inc.end(), std::greater<>());
        for (size_t i = 0; i < keep; ++i) kept.push_back(inc[i].second);
      }
      // Union of the per-node top-k sets, in a canonical (sorted) order
      // rather than sweep order — the output is platform-independent.
      std::sort(kept.begin(), kept.end());
      kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
      break;
    }
  }

  for (uint64_t key : kept) {
    out.Add({static_cast<uint32_t>(key >> 32),
             static_cast<uint32_t>(key & 0xffffffffULL)});
  }
  return out;
}

}  // namespace sablock::pipeline
