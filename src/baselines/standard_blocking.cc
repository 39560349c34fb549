#include "baselines/standard_blocking.h"

#include <unordered_map>
#include <utility>

#include "common/flat_map.h"
#include "features/feature_store.h"

namespace sablock::baselines {

void StandardBlocking::Run(const data::Dataset& dataset,
                           core::BlockSink& sink) const {
  KeyBuilder keys(dataset, key_);
  std::unordered_map<std::string, core::Block> buckets;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    std::string key = keys.Key(id);
    if (key.empty()) continue;  // records without a key are not blocked
    buckets[key].push_back(id);
  }
  for (auto& [key, block] : buckets) {
    if (sink.Done()) return;
    if (block.size() >= 2) sink.Consume(std::move(block));
  }
}

TokenBlockingTechnique::TokenBlockingTechnique(
    std::vector<std::string> attributes)
    : attributes_(std::move(attributes)) {}

std::string TokenBlockingTechnique::name() const { return "TokenBlocking"; }

void TokenBlockingTechnique::Run(const data::Dataset& dataset,
                                 core::BlockSink& sink) const {
  // Postings over the interned token ids of the shared token column — no
  // string hashing or tokenization here, just id-indexed appends.
  features::FeatureView::Handle<features::TokenColumn> tokens =
      dataset.features().TokensFor(attributes_);
  // Postings keyed by token id in a hash map: its footprint follows the
  // tokens this run actually touches, not token_limit — which covers the
  // whole column even when this run is one small shard slice of it.
  FlatMap<features::TokenId, core::Block> postings;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    for (features::TokenId token : tokens.Row(id)) {
      postings[token].push_back(id);
    }
  }
  // Emit in canonical content order: downstream pruning should see blocks
  // ordered by what they contain, not by how the vocabulary happened to
  // be discovered. Singleton blocks carry no comparisons and are skipped.
  core::BlockCollection kept;
  postings.ForEach([&](features::TokenId, core::Block& block) {
    if (block.size() >= 2) kept.Add(std::move(block));
  });
  kept.SortBlocks();
  kept.Drain(sink);
}

}  // namespace sablock::baselines
