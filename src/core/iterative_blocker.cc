#include "core/iterative_blocker.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/hashing.h"
#include "core/minhash.h"
#include "features/feature_store.h"

namespace sablock::core {

IterativeLshBlocker::IterativeLshBlocker(LshParams params,
                                         double merge_threshold,
                                         int iterations)
    : params_(std::move(params)),
      merge_threshold_(merge_threshold),
      iterations_(iterations) {
  SABLOCK_CHECK(merge_threshold_ >= 0.0 && merge_threshold_ <= 1.0);
  SABLOCK_CHECK(iterations_ >= 1);
}

std::string IterativeLshBlocker::name() const {
  return "HARRA(k=" + std::to_string(params_.k) +
         ",l=" + std::to_string(params_.l) + ",t=" +
         std::to_string(static_cast<int>(merge_threshold_ * 100)) + "%" +
         ",it=" + std::to_string(iterations_) + ")";
}

void IterativeLshBlocker::Run(const data::Dataset& dataset,
                              BlockSink& sink) const {
  const int num_hashes = params_.k * params_.l;
  MinHasher hasher(num_hashes, params_.seed);

  // Super-record state: each group starts as one record; merging unions
  // shingle sets. The seed sets are copied out of the shared feature
  // cache because merging mutates them. `group_of[r]` tracks each
  // record's current group.
  const auto shingle_cache =
      dataset.features().ShinglesFor(params_.attributes, params_.q);
  std::vector<std::vector<uint64_t>> shingles;
  std::vector<std::vector<data::RecordId>> members;
  std::vector<uint32_t> group_of(dataset.size());
  shingles.reserve(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    const std::span<const uint64_t> row = shingle_cache.Row(id);
    shingles.emplace_back(row.begin(), row.end());
    members.push_back({id});
    group_of[id] = id;
  }

  for (int iter = 0; iter < iterations_; ++iter) {
    // Active groups are the current representatives.
    std::vector<uint32_t> active;
    for (uint32_t g = 0; g < members.size(); ++g) {
      if (!members[g].empty() && !shingles[g].empty()) active.push_back(g);
    }
    if (active.size() < 2) break;

    // Hash the active groups.
    std::unordered_map<uint32_t, std::vector<uint64_t>> sigs;
    sigs.reserve(active.size());
    for (uint32_t g : active) {
      sigs.emplace(g, hasher.Signature(shingles[g]));
    }

    bool merged_any = false;
    for (int t = 0; t < params_.l; ++t) {
      std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
      for (uint32_t g : active) {
        if (members[g].empty()) continue;  // merged away this iteration
        uint64_t key = Mix64(0x4a88a + static_cast<uint64_t>(t));
        for (int r = 0; r < params_.k; ++r) {
          key = HashCombine(key,
                            sigs[g][static_cast<size_t>(t) * params_.k + r]);
        }
        buckets[key].push_back(g);
      }
      for (auto& [key, bucket] : buckets) {
        if (bucket.size() < 2) continue;
        // Merge every group that clears the threshold against the
        // bucket's first surviving group (HARRA's greedy in-bucket pass).
        uint32_t head = bucket[0];
        for (size_t i = 1; i < bucket.size(); ++i) {
          uint32_t g = bucket[i];
          if (members[g].empty() || members[head].empty()) continue;
          double sim = MinHasher::EstimateJaccard(sigs[head], sigs[g]);
          if (sim < merge_threshold_) continue;
          // Merge g into head: union shingles and members.
          std::vector<uint64_t> merged;
          std::set_union(shingles[head].begin(), shingles[head].end(),
                         shingles[g].begin(), shingles[g].end(),
                         std::back_inserter(merged));
          shingles[head] = std::move(merged);
          members[head].insert(members[head].end(), members[g].begin(),
                               members[g].end());
          members[g].clear();
          shingles[g].clear();
          merged_any = true;
        }
      }
    }
    if (!merged_any) break;
  }

  // Final blocks: the connected components of the merge log (equivalently
  // the surviving groups with >= 2 members), each sorted in one buffer.
  std::vector<data::RecordId> sorted;
  for (const std::vector<data::RecordId>& group : members) {
    if (sink.Done()) return;
    if (group.size() >= 2) {
      sorted.assign(group.begin(), group.end());
      std::sort(sorted.begin(), sorted.end());
      sink.Consume(sorted);
    }
  }
}

}  // namespace sablock::core
