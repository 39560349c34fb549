#include "core/lsh_variants.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/check.h"
#include "common/hashing.h"
#include "core/minhash.h"
#include "features/feature_store.h"

namespace sablock::core {

namespace {

/// Computes, for every record, the per-row (minimum, second-minimum)
/// minhash values. Rows of empty shingle sets hold (kEmptySlot,
/// kEmptySlot).
void ComputeTop2MinhashSignatures(
    const data::Dataset& dataset, const LshParams& params,
    std::vector<std::vector<uint64_t>>* min1,
    std::vector<std::vector<uint64_t>>* min2) {
  SABLOCK_CHECK(params.k > 0 && params.l > 0);
  const int num_hashes = params.k * params.l;
  const auto shingle_cache =
      dataset.features().ShinglesFor(params.attributes, params.q);
  std::vector<UniversalHash> hashes;
  hashes.reserve(static_cast<size_t>(num_hashes));
  for (int i = 0; i < num_hashes; ++i) {
    hashes.push_back(
        UniversalHash::FromSeed(params.seed, static_cast<uint64_t>(i)));
  }

  min1->assign(dataset.size(), {});
  min2->assign(dataset.size(), {});
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    const std::span<const uint64_t> shingles = shingle_cache.Row(id);
    std::vector<uint64_t>& m1 = (*min1)[id];
    std::vector<uint64_t>& m2 = (*min2)[id];
    m1.assign(static_cast<size_t>(num_hashes), MinHasher::kEmptySlot);
    m2.assign(static_cast<size_t>(num_hashes), MinHasher::kEmptySlot);
    for (uint64_t shingle : shingles) {
      for (int i = 0; i < num_hashes; ++i) {
        uint64_t h = hashes[static_cast<size_t>(i)](shingle);
        if (h < m1[static_cast<size_t>(i)]) {
          m2[static_cast<size_t>(i)] = m1[static_cast<size_t>(i)];
          m1[static_cast<size_t>(i)] = h;
        } else if (h < m2[static_cast<size_t>(i)] &&
                   h != m1[static_cast<size_t>(i)]) {
          m2[static_cast<size_t>(i)] = h;
        }
      }
    }
  }
}

uint64_t BandKeyFromRows(const std::vector<uint64_t>& rows, int table,
                         int k, int flipped_row,
                         const std::vector<uint64_t>& alt_rows) {
  uint64_t key = Mix64(0x9b0be5 + static_cast<uint64_t>(table));
  for (int r = 0; r < k; ++r) {
    size_t idx = static_cast<size_t>(table) * k + r;
    uint64_t v = (r == flipped_row) ? alt_rows[idx] : rows[idx];
    key = HashCombine(key, v);
  }
  return key;
}

}  // namespace

MultiProbeLshBlocker::MultiProbeLshBlocker(LshParams params, int num_probes)
    : params_(std::move(params)), num_probes_(num_probes) {
  SABLOCK_CHECK(num_probes_ >= 0);
}

std::string MultiProbeLshBlocker::name() const {
  return "MP-LSH(k=" + std::to_string(params_.k) +
         ",l=" + std::to_string(params_.l) +
         ",p=" + std::to_string(num_probes_) + ")";
}

void MultiProbeLshBlocker::Run(const data::Dataset& dataset,
                               BlockSink& sink) const {
  std::vector<std::vector<uint64_t>> min1;
  std::vector<std::vector<uint64_t>> min2;
  ComputeTop2MinhashSignatures(dataset, params_, &min1, &min2);
  const int probes = std::min(num_probes_, params_.k);

  LshBuckets buckets;
  for (int t = 0; t < params_.l; ++t) {
    if (sink.Done()) return;
    for (data::RecordId id = 0; id < dataset.size(); ++id) {
      if (min1[id].empty() || min1[id][0] == MinHasher::kEmptySlot) {
        continue;
      }
      // Base bucket plus one probe per perturbed row. Two records whose
      // probe sets intersect land in a shared bucket; single-member
      // buckets are dropped on emission.
      buckets.Add(BandKeyFromRows(min1[id], t, params_.k, -1, min2[id]), id);
      for (int p = 0; p < probes; ++p) {
        size_t idx = static_cast<size_t>(t) * params_.k + p;
        if (min2[id][idx] == MinHasher::kEmptySlot) continue;
        buckets.Add(BandKeyFromRows(min1[id], t, params_.k, p, min2[id]), id);
      }
    }
    buckets.EmitTable(sink);
  }
}

LshForestBlocker::LshForestBlocker(LshParams params, int max_depth,
                                   size_t max_block_size)
    : params_(std::move(params)),
      max_depth_(max_depth),
      max_block_size_(max_block_size) {
  SABLOCK_CHECK(max_depth_ >= 1);
  SABLOCK_CHECK(max_block_size_ >= 2);
}

std::string LshForestBlocker::name() const {
  return "LSHForest(l=" + std::to_string(params_.l) +
         ",d=" + std::to_string(max_depth_) +
         ",max=" + std::to_string(max_block_size_) + ")";
}

void LshForestBlocker::Run(const data::Dataset& dataset,
                           BlockSink& sink) const {
  // One label sequence of max_depth rows per tree.
  LshParams effective = params_;
  effective.k = max_depth_;
  const auto sigs = MinhashSignatures(dataset, effective);

  for (int t = 0; t < params_.l; ++t) {
    if (sink.Done()) return;
    const size_t base = static_cast<size_t>(t) * max_depth_;
    // Iterative splitting: (group, depth) work list. Groups are split by
    // the next row's value while they are too large — the forest's
    // variable-length prefixes.
    std::vector<std::pair<std::vector<data::RecordId>, int>> work;
    std::vector<data::RecordId> all;
    all.reserve(dataset.size());
    for (data::RecordId id = 0; id < dataset.size(); ++id) {
      const std::span<const uint64_t> sig = sigs.Row(id);
      if (!sig.empty() && sig[0] != MinHasher::kEmptySlot) {
        all.push_back(id);
      }
    }
    work.emplace_back(std::move(all), 0);
    while (!work.empty()) {
      if (sink.Done()) return;
      auto [group, depth] = std::move(work.back());
      work.pop_back();
      if (group.size() < 2) continue;
      if (group.size() <= max_block_size_ || depth == max_depth_) {
        // depth 0 can only reach here if the whole dataset fits in one
        // block; still a valid (degenerate) prefix group.
        sink.Consume(group);
        continue;
      }
      std::unordered_map<uint64_t, std::vector<data::RecordId>> children;
      for (data::RecordId id : group) {
        children[sigs.Row(id)[base + static_cast<size_t>(depth)]]
            .push_back(id);
      }
      for (auto& [label, child] : children) {
        work.emplace_back(std::move(child), depth + 1);
      }
    }
  }
}

}  // namespace sablock::core
