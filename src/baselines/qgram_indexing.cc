#include "baselines/qgram_indexing.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "baselines/blocking_key.h"
#include "common/check.h"
#include "common/hashing.h"
#include "common/string_util.h"
#include "text/qgram.h"

namespace sablock::baselines {

QGramIndexing::QGramIndexing(std::vector<std::string> attributes, int q,
                             double threshold, size_t max_keys_per_record)
    : attributes_(std::move(attributes)),
      q_(q),
      threshold_(threshold),
      max_keys_per_record_(max_keys_per_record) {
  SABLOCK_CHECK(q_ >= 1);
  SABLOCK_CHECK(threshold_ > 0.0 && threshold_ <= 1.0);
}

std::string QGramIndexing::name() const {
  return "QGr(q=" + std::to_string(q_) + ",t=" +
         sablock::FormatDouble(threshold_, 1) + ")";
}

namespace {

// Hash of the concatenation of a gram-hash subsequence identified by the
// indices NOT deleted.
uint64_t SubListKey(const std::vector<uint64_t>& grams,
                    const std::vector<bool>& deleted) {
  uint64_t key = 0x9c9a;
  for (size_t i = 0; i < grams.size(); ++i) {
    if (!deleted[i]) key = sablock::HashCombine(key, grams[i]);
  }
  return key;
}

// Generates keys of all sub-lists obtainable by deleting up to max_del
// grams, breadth-first (fewest deletions first), bounded by max_keys.
void GenerateSubListKeys(const std::vector<uint64_t>& grams, size_t max_del,
                         size_t max_keys, std::vector<uint64_t>* keys) {
  std::vector<bool> deleted(grams.size(), false);
  std::unordered_set<uint64_t> seen;
  keys->push_back(SubListKey(grams, deleted));
  seen.insert(keys->back());
  if (max_del == 0) return;

  // Frontier of deletion masks represented by sorted index vectors.
  std::vector<std::vector<size_t>> frontier = {{}};
  for (size_t depth = 1; depth <= max_del && keys->size() < max_keys;
       ++depth) {
    std::vector<std::vector<size_t>> next;
    for (const std::vector<size_t>& mask : frontier) {
      size_t start = mask.empty() ? 0 : mask.back() + 1;
      for (size_t i = start; i < grams.size(); ++i) {
        std::vector<size_t> extended = mask;
        extended.push_back(i);
        std::fill(deleted.begin(), deleted.end(), false);
        for (size_t d : extended) deleted[d] = true;
        uint64_t key = SubListKey(grams, deleted);
        if (seen.insert(key).second) {
          keys->push_back(key);
          if (keys->size() >= max_keys) return;
        }
        next.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
  }
}

}  // namespace

void QGramIndexing::Run(const data::Dataset& dataset,
                        core::BlockSink& sink) const {
  KeyBuilder keys(dataset, attributes_);
  std::unordered_map<uint64_t, std::vector<data::RecordId>> buckets;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    std::string bkv = keys.Key(id);
    if (bkv.empty()) continue;
    // Ordered gram list (not a set): QGr keys preserve gram order.
    std::vector<std::string> gram_strings = text::QGrams(bkv, q_);
    std::vector<uint64_t> grams;
    grams.reserve(gram_strings.size());
    for (const std::string& g : gram_strings) {
      grams.push_back(sablock::HashBytes(g));
    }
    size_t min_len = static_cast<size_t>(
        std::ceil(threshold_ * static_cast<double>(grams.size())));
    if (min_len == 0) min_len = 1;
    size_t max_del = grams.size() > min_len ? grams.size() - min_len : 0;

    std::vector<uint64_t> keys;
    GenerateSubListKeys(grams, max_del, max_keys_per_record_, &keys);
    for (uint64_t key : keys) {
      buckets[key].push_back(id);
    }
  }
  for (const auto& [key, block] : buckets) {
    if (sink.Done()) return;
    if (block.size() >= 2) sink.Consume(block);
  }
}

}  // namespace sablock::baselines
