#include "baselines/sorted_neighbourhood.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "baselines/blocking_key.h"
#include "common/check.h"
#include "core/block_utils.h"

namespace sablock::baselines {

void SortedNeighbourhoodArray::Run(const data::Dataset& dataset,
                                   core::BlockSink& sink) const {
  SABLOCK_CHECK(window_size_ >= 2);
  std::vector<std::string> keys = MakeAllKeys(dataset, attributes_);
  std::vector<data::RecordId> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](data::RecordId a, data::RecordId b) {
                     return keys[a] < keys[b];
                   });
  core::EmitWindows(order, static_cast<size_t>(window_size_), sink);
}

void SortedNeighbourhoodInvertedIndex::Run(const data::Dataset& dataset,
                                           core::BlockSink& sink) const {
  SABLOCK_CHECK(window_size_ >= 1);
  std::vector<std::string> keys = MakeAllKeys(dataset, attributes_);
  // Sorted unique keys.
  std::map<std::string, std::vector<data::RecordId>> index;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    index[keys[id]].push_back(id);
  }
  std::vector<const std::vector<data::RecordId>*> postings;
  postings.reserve(index.size());
  for (const auto& [key, block] : index) {
    postings.push_back(&block);
  }

  const size_t w = static_cast<size_t>(window_size_);
  std::vector<data::RecordId> merged;
  for (size_t start = 0; start < postings.size(); ++start) {
    if (sink.Done()) return;
    size_t end = std::min(start + w, postings.size());
    merged.clear();
    for (size_t i = start; i < end; ++i) {
      merged.insert(merged.end(), postings[i]->begin(), postings[i]->end());
    }
    if (merged.size() >= 2) sink.Consume(merged);
    if (end == postings.size()) break;
  }
}

MultiPassSortedNeighbourhood::MultiPassSortedNeighbourhood(
    std::vector<std::string> attributes, int window_size)
    : attributes_(std::move(attributes)), window_size_(window_size) {
  SABLOCK_CHECK(!attributes_.empty());
  SABLOCK_CHECK(window_size_ >= 2);
}

std::string MultiPassSortedNeighbourhood::name() const {
  return "SorMP(passes=" + std::to_string(attributes_.size()) +
         ",w=" + std::to_string(window_size_) + ")";
}

void MultiPassSortedNeighbourhood::Run(const data::Dataset& dataset,
                                       core::BlockSink& sink) const {
  // The transitive closure needs every window pair before any block can be
  // emitted, so the passes materialize into a collection first.
  core::BlockCollection all_windows;
  for (const std::string& attribute : attributes_) {
    SortedNeighbourhoodArray pass({attribute}, window_size_);
    pass.Run(dataset, all_windows);
  }
  core::BlockCollection components =
      core::ConnectedComponents(all_windows, dataset.size());
  components.Drain(sink);
}

}  // namespace sablock::baselines
