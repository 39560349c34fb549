#include "baselines/suffix_array.h"

#include <algorithm>
#include <map>

#include "baselines/blocking_key.h"
#include "common/check.h"
#include "common/string_util.h"
#include "text/similarity.h"

namespace sablock::baselines {

namespace {

// Shared: build suffix (or substring) -> records index, drop oversized
// postings, emit blocks.
using SuffixIndex = std::map<std::string, std::vector<data::RecordId>>;

void AddSuffixes(const std::string& bkv, data::RecordId id, int min_len,
                 SuffixIndex* index) {
  int len = static_cast<int>(bkv.size());
  if (len < min_len) {
    if (len > 0) (*index)[bkv].push_back(id);
    return;
  }
  for (int start = 0; start + min_len <= len; ++start) {
    std::vector<data::RecordId>& posting =
        (*index)[bkv.substr(static_cast<size_t>(start))];
    if (posting.empty() || posting.back() != id) posting.push_back(id);
  }
}

void AddAllSubstrings(const std::string& bkv, data::RecordId id, int min_len,
                      SuffixIndex* index) {
  int len = static_cast<int>(bkv.size());
  if (len < min_len) {
    if (len > 0) (*index)[bkv].push_back(id);
    return;
  }
  for (int start = 0; start < len; ++start) {
    for (int sub_len = min_len; start + sub_len <= len; ++sub_len) {
      std::vector<data::RecordId>& posting =
          (*index)[bkv.substr(static_cast<size_t>(start),
                              static_cast<size_t>(sub_len))];
      if (posting.empty() || posting.back() != id) posting.push_back(id);
    }
  }
}

void EmitBlocks(const SuffixIndex& index, size_t max_block_size,
                core::BlockSink& sink) {
  for (const auto& [suffix, posting] : index) {
    if (sink.Done()) return;
    if (posting.size() < 2 || posting.size() > max_block_size) continue;
    sink.Consume(posting);
  }
}

}  // namespace

SuffixArrayBlocking::SuffixArrayBlocking(std::vector<std::string> attributes,
                                         int min_suffix_len,
                                         size_t max_block_size)
    : attributes_(std::move(attributes)),
      min_suffix_len_(min_suffix_len),
      max_block_size_(max_block_size) {
  SABLOCK_CHECK(min_suffix_len_ >= 1 && max_block_size_ >= 2);
}

std::string SuffixArrayBlocking::name() const {
  return "SuA(len=" + std::to_string(min_suffix_len_) +
         ",max=" + std::to_string(max_block_size_) + ")";
}

void SuffixArrayBlocking::Run(const data::Dataset& dataset,
                              core::BlockSink& sink) const {
  KeyBuilder keys(dataset, attributes_);
  SuffixIndex index;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    AddSuffixes(keys.Key(id), id, min_suffix_len_, &index);
  }
  EmitBlocks(index, max_block_size_, sink);
}

SuffixArrayAllSubstrings::SuffixArrayAllSubstrings(
    std::vector<std::string> attributes, int min_suffix_len,
    size_t max_block_size)
    : attributes_(std::move(attributes)),
      min_suffix_len_(min_suffix_len),
      max_block_size_(max_block_size) {
  SABLOCK_CHECK(min_suffix_len_ >= 1 && max_block_size_ >= 2);
}

std::string SuffixArrayAllSubstrings::name() const {
  return "SuAS(len=" + std::to_string(min_suffix_len_) +
         ",max=" + std::to_string(max_block_size_) + ")";
}

void SuffixArrayAllSubstrings::Run(const data::Dataset& dataset,
                                   core::BlockSink& sink) const {
  KeyBuilder keys(dataset, attributes_);
  SuffixIndex index;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    AddAllSubstrings(keys.Key(id), id, min_suffix_len_, &index);
  }
  EmitBlocks(index, max_block_size_, sink);
}

RobustSuffixArrayBlocking::RobustSuffixArrayBlocking(
    std::vector<std::string> attributes, int min_suffix_len,
    size_t max_block_size, std::string similarity_name,
    double similarity_threshold)
    : attributes_(std::move(attributes)),
      min_suffix_len_(min_suffix_len),
      max_block_size_(max_block_size),
      similarity_name_(std::move(similarity_name)),
      similarity_threshold_(similarity_threshold) {
  SABLOCK_CHECK(min_suffix_len_ >= 1 && max_block_size_ >= 2);
}

std::string RobustSuffixArrayBlocking::name() const {
  return "RSuA(len=" + std::to_string(min_suffix_len_) +
         ",max=" + std::to_string(max_block_size_) + "," + similarity_name_ +
         "," + sablock::FormatDouble(similarity_threshold_, 2) + ")";
}

void RobustSuffixArrayBlocking::Run(const data::Dataset& dataset,
                                    core::BlockSink& sink) const {
  KeyBuilder keys(dataset, attributes_);
  SuffixIndex index;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    AddSuffixes(keys.Key(id), id, min_suffix_len_, &index);
  }
  text::StringSimilarityFn sim = text::SimilarityByName(similarity_name_);

  // Merge runs of adjacent similar suffixes in the (sorted) index. The
  // std::map iteration order is exactly the sorted suffix order.
  std::vector<data::RecordId> merged;
  const std::string* prev_suffix = nullptr;
  auto flush = [&]() {
    if (!merged.empty()) {
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      if (merged.size() >= 2 && merged.size() <= max_block_size_) {
        sink.Consume(merged);
      }
      merged.clear();
    }
  };
  for (const auto& [suffix, posting] : index) {
    if (sink.Done()) return;
    bool mergeable =
        prev_suffix != nullptr &&
        sim(*prev_suffix, suffix) >= similarity_threshold_;
    if (!mergeable) flush();
    merged.insert(merged.end(), posting.begin(), posting.end());
    prev_suffix = &suffix;
  }
  flush();
}

}  // namespace sablock::baselines
