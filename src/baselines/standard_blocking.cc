#include "baselines/standard_blocking.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/blocking_key.h"
#include "common/flat_map.h"
#include "features/feature_store.h"

namespace sablock::baselines {

void StandardBlocking::Run(const data::Dataset& dataset,
                           core::BlockSink& sink) const {
  KeyBuilder keys(dataset, attributes_);
  std::unordered_map<std::string, std::vector<data::RecordId>> buckets;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    std::string key = keys.Key(id);
    if (key.empty()) continue;  // records without a key are not blocked
    buckets[key].push_back(id);
  }
  for (const auto& [key, block] : buckets) {
    if (sink.Done()) return;
    if (block.size() >= 2) sink.Consume(block);
  }
}

TokenBlockingTechnique::TokenBlockingTechnique(
    std::vector<std::string> attributes)
    : attributes_(std::move(attributes)) {}

std::string TokenBlockingTechnique::name() const { return "TokenBlocking"; }

void TokenBlockingTechnique::Run(const data::Dataset& dataset,
                                 core::BlockSink& sink) const {
  // Postings over the interned token ids of the shared token column — no
  // string hashing or tokenization here.
  features::FeatureView::Handle<features::TokenColumn> tokens =
      dataset.features().TokensFor(attributes_);
  // Per-token counts keyed in a hash map: its footprint follows the tokens
  // this run actually touches, not token_limit — which covers the whole
  // column even when this run is one small shard slice of it.
  constexpr size_t kDropped = SIZE_MAX;
  FlatMap<features::TokenId, size_t> cursor;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    for (features::TokenId token : tokens.Row(id)) ++cursor[token];
  }
  // Counting pass: every kept posting (singletons carry no comparisons)
  // gets its id range in one flat array, and its count turns into the
  // cursor the scatter fills the range from, ids ascending.
  std::vector<uint32_t> ends;
  size_t total = 0;
  cursor.ForEach([&](features::TokenId, size_t& count) {
    if (count < 2) {
      count = kDropped;
      return;
    }
    const size_t begin = total;
    total += count;
    ends.push_back(static_cast<uint32_t>(total));
    count = begin;
  });
  std::vector<data::RecordId> ids(total);
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    for (features::TokenId token : tokens.Row(id)) {
      size_t& next = *cursor.Find(token);
      if (next != kDropped) ids[next++] = id;
    }
  }
  // Emit in canonical content order: downstream pruning should see blocks
  // ordered by what they contain, not by how the vocabulary happened to
  // be discovered.
  core::BlockCollection kept(std::move(ids), std::move(ends));
  kept.SortBlocks();
  kept.Drain(sink);
}

}  // namespace sablock::baselines
