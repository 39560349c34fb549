#include "baselines/adaptive_sorted_neighbourhood.h"

#include <algorithm>
#include <numeric>

#include "baselines/blocking_key.h"
#include "common/string_util.h"

namespace sablock::baselines {

AdaptiveSortedNeighbourhood::AdaptiveSortedNeighbourhood(
    std::vector<std::string> attributes, std::string similarity_name,
    double threshold, size_t max_block_size)
    : attributes_(std::move(attributes)),
      similarity_name_(std::move(similarity_name)),
      similarity_(text::SimilarityByName(similarity_name_)),
      threshold_(threshold),
      max_block_size_(max_block_size) {}

std::string AdaptiveSortedNeighbourhood::name() const {
  return "ASor(" + similarity_name_ + "," +
         sablock::FormatDouble(threshold_, 2) + ")";
}

void AdaptiveSortedNeighbourhood::Run(const data::Dataset& dataset,
                                      core::BlockSink& sink) const {
  std::vector<std::string> keys = MakeAllKeys(dataset, attributes_);
  std::vector<data::RecordId> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](data::RecordId a, data::RecordId b) {
                     return keys[a] < keys[b];
                   });

  std::vector<data::RecordId> current;
  auto flush = [&sink, &current]() {
    if (current.size() >= 2) sink.Consume(current);
    current.clear();
  };
  for (size_t i = 0; i < order.size(); ++i) {
    if (sink.Done()) return;
    if (current.empty()) {
      current.push_back(order[i]);
      continue;
    }
    const std::string& prev_key = keys[current.back()];
    const std::string& cur_key = keys[order[i]];
    bool similar = similarity_(prev_key, cur_key) >= threshold_;
    bool full =
        max_block_size_ > 0 && current.size() >= max_block_size_;
    if (similar && !full) {
      current.push_back(order[i]);
    } else {
      flush();
      current.push_back(order[i]);
    }
  }
  flush();
}

}  // namespace sablock::baselines
