#include "text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"

namespace sablock::text {

double CosineSimilarity(const SparseVector& a, const SparseVector& b) {
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    if (a.entries[i].first == b.entries[j].first) {
      dot += static_cast<double>(a.entries[i].second) * b.entries[j].second;
      ++i;
      ++j;
    } else if (a.entries[i].first < b.entries[j].first) {
      ++i;
    } else {
      ++j;
    }
  }
  return dot;
}

void TfIdfVectorizer::Build(
    const std::vector<std::vector<uint32_t>>& postings,
    size_t num_documents) {
  idf_.resize(postings.size());
  const double n = static_cast<double>(std::max<size_t>(num_documents, 1));
  for (size_t t = 0; t < postings.size(); ++t) {
    idf_[t] = static_cast<float>(
        std::log(n / (1.0 + static_cast<double>(postings[t].size()))) + 1.0);
  }
}

SparseVector TfIdfVectorizer::Vectorize(
    std::span<const uint32_t> terms) const {
  std::unordered_map<uint32_t, float> counts;
  for (uint32_t t : terms) {
    SABLOCK_DCHECK(t < idf_.size());
    counts[t] += 1.0f;
  }
  SparseVector v;
  v.entries.reserve(counts.size());
  double norm_sq = 0.0;
  for (const auto& [term, tf] : counts) {
    float w = tf * idf_[term];
    v.entries.emplace_back(term, w);
    norm_sq += static_cast<double>(w) * w;
  }
  std::sort(v.entries.begin(), v.entries.end());
  if (norm_sq > 0.0) {
    float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (auto& [term, w] : v.entries) w *= inv;
  }
  return v;
}

}  // namespace sablock::text
