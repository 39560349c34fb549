#include "baselines/canopy.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"
#include "text/tfidf.h"

namespace sablock::baselines {

namespace {

// Shared candidate-generation machinery: token inverted index + per-record
// sparse vectors (uniform weights for Jaccard, TF-IDF weights for cosine).
class CanopyIndex {
 public:
  CanopyIndex(const data::Dataset& dataset, const BlockingKeyDef& key,
              CanopySimilarity similarity) {
    KeyBuilder keys(dataset, key);
    // Tokenize each BKV exactly once; the word lists feed the inverted
    // index, the Jaccard token sets and the TF-IDF vectors. A token's id is
    // its first appearance over each record's sorted distinct words.
    std::vector<std::vector<std::string>> words(dataset.size());
    for (data::RecordId id = 0; id < dataset.size(); ++id) {
      words[id] = sablock::SplitWords(keys.Key(id));
    }
    std::unordered_map<std::string, uint32_t> token_ids;
    token_sets_.resize(dataset.size());
    for (data::RecordId id = 0; id < dataset.size(); ++id) {
      std::vector<std::string> tokens = words[id];
      std::sort(tokens.begin(), tokens.end());
      tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
      for (const std::string& t : tokens) {
        auto [it, inserted] =
            token_ids.emplace(t, static_cast<uint32_t>(token_ids.size()));
        token_sets_[id].push_back(it->second);
        if (inserted) postings_.emplace_back();
        postings_[it->second].push_back(id);
      }
      std::sort(token_sets_[id].begin(), token_sets_[id].end());
    }
    similarity_ = similarity;
    if (similarity != CanopySimilarity::kTfIdfCosine) return;
    // The postings give the document frequencies; each record's vector
    // counts its ids in word order, duplicates included.
    vectorizer_.Build(postings_, dataset.size());
    vectors_.resize(dataset.size());
    std::vector<uint32_t> terms;
    for (data::RecordId id = 0; id < dataset.size(); ++id) {
      terms.clear();
      for (const std::string& word : words[id]) {
        terms.push_back(token_ids.find(word)->second);
      }
      vectors_[id] = vectorizer_.Vectorize(terms);
    }
  }

  // Records sharing at least one token with `id` (excluding `id`).
  std::vector<data::RecordId> Candidates(data::RecordId id) const {
    std::vector<data::RecordId> cands;
    for (uint32_t token : token_sets_[id]) {
      const auto& posting = postings_[token];
      cands.insert(cands.end(), posting.begin(), posting.end());
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    cands.erase(std::remove(cands.begin(), cands.end(), id), cands.end());
    return cands;
  }

  double Similarity(data::RecordId a, data::RecordId b) const {
    if (similarity_ == CanopySimilarity::kTfIdfCosine) {
      return text::CosineSimilarity(vectors_[a], vectors_[b]);
    }
    const auto& ta = token_sets_[a];
    const auto& tb = token_sets_[b];
    if (ta.empty() && tb.empty()) return 1.0;
    if (ta.empty() || tb.empty()) return 0.0;
    size_t i = 0;
    size_t j = 0;
    size_t common = 0;
    while (i < ta.size() && j < tb.size()) {
      if (ta[i] == tb[j]) {
        ++common;
        ++i;
        ++j;
      } else if (ta[i] < tb[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return static_cast<double>(common) /
           static_cast<double>(ta.size() + tb.size() - common);
  }

 private:
  CanopySimilarity similarity_;
  std::vector<std::vector<data::RecordId>> postings_;
  std::vector<std::vector<uint32_t>> token_sets_;
  text::TfIdfVectorizer vectorizer_;
  std::vector<text::SparseVector> vectors_;
};

const char* SimilarityLabel(CanopySimilarity s) {
  return s == CanopySimilarity::kJaccard ? "jac" : "tfidf";
}

}  // namespace

CanopyThreshold::CanopyThreshold(BlockingKeyDef key,
                                 CanopySimilarity similarity, double loose,
                                 double tight, uint64_t seed)
    : key_(std::move(key)),
      similarity_(similarity),
      loose_(loose),
      tight_(tight),
      seed_(seed) {
  SABLOCK_CHECK(tight_ >= loose_);
}

std::string CanopyThreshold::name() const {
  return std::string("CaTh(") + SimilarityLabel(similarity_) + "," +
         sablock::FormatDouble(tight_, 2) + "/" +
         sablock::FormatDouble(loose_, 2) + ")";
}

void CanopyThreshold::Run(const data::Dataset& dataset,
                          core::BlockSink& sink) const {
  CanopyIndex index(dataset, key_, similarity_);
  std::vector<bool> removed(dataset.size(), false);
  std::vector<data::RecordId> pool(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) pool[id] = id;
  sablock::Rng rng(seed_);
  rng.Shuffle(&pool);

  for (data::RecordId seed_record : pool) {
    if (sink.Done()) return;
    if (removed[seed_record]) continue;
    removed[seed_record] = true;
    core::Block canopy = {seed_record};
    for (data::RecordId cand : index.Candidates(seed_record)) {
      if (removed[cand]) continue;
      double sim = index.Similarity(seed_record, cand);
      if (sim >= loose_) {
        canopy.push_back(cand);
        if (sim >= tight_) removed[cand] = true;
      }
    }
    if (canopy.size() >= 2) sink.Consume(std::move(canopy));
  }
}

CanopyNearestNeighbour::CanopyNearestNeighbour(BlockingKeyDef key,
                                               CanopySimilarity similarity,
                                               int n1, int n2, uint64_t seed)
    : key_(std::move(key)),
      similarity_(similarity),
      n1_(n1),
      n2_(n2),
      seed_(seed) {
  SABLOCK_CHECK(n1_ >= 1 && n2_ >= 1 && n2_ <= n1_);
}

std::string CanopyNearestNeighbour::name() const {
  return std::string("CaNN(") + SimilarityLabel(similarity_) + "," +
         std::to_string(n1_) + "/" + std::to_string(n2_) + ")";
}

void CanopyNearestNeighbour::Run(const data::Dataset& dataset,
                                 core::BlockSink& sink) const {
  CanopyIndex index(dataset, key_, similarity_);
  std::vector<bool> removed(dataset.size(), false);
  std::vector<data::RecordId> pool(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) pool[id] = id;
  sablock::Rng rng(seed_);
  rng.Shuffle(&pool);

  for (data::RecordId seed_record : pool) {
    if (sink.Done()) return;
    if (removed[seed_record]) continue;
    removed[seed_record] = true;
    std::vector<std::pair<double, data::RecordId>> scored;
    for (data::RecordId cand : index.Candidates(seed_record)) {
      if (removed[cand]) continue;
      scored.emplace_back(index.Similarity(seed_record, cand), cand);
    }
    size_t keep = std::min<size_t>(scored.size(), static_cast<size_t>(n1_));
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<ptrdiff_t>(keep),
                      scored.end(), std::greater<>());
    core::Block canopy = {seed_record};
    for (size_t i = 0; i < keep; ++i) {
      canopy.push_back(scored[i].second);
      if (i < static_cast<size_t>(n2_)) removed[scored[i].second] = true;
    }
    if (canopy.size() >= 2) sink.Consume(std::move(canopy));
  }
}

}  // namespace sablock::baselines
