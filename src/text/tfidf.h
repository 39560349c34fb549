#ifndef SABLOCK_TEXT_TFIDF_H_
#define SABLOCK_TEXT_TFIDF_H_

#include <cstdint>
#include <span>
#include <vector>

namespace sablock::text {

/// A sparse TF-IDF vector: sorted (term id, weight) entries, L2-normalized.
struct SparseVector {
  std::vector<std::pair<uint32_t, float>> entries;
};

/// Cosine similarity of two L2-normalized sparse vectors.
double CosineSimilarity(const SparseVector& a, const SparseVector& b);

/// Corpus-level TF-IDF vectorizer over term ids 0..n-1, numbered by the
/// caller. Build() fixes each term's IDF from an inverted index; Vectorize()
/// then maps a document, given as its term ids, to an L2-normalized sparse
/// vector. Used by the canopy-clustering baselines (CaTh / CaNN with "TF-IDF
/// cosine"), whose token postings are that index.
class TfIdfVectorizer {
 public:
  /// Builds the IDF table: term t occurs in the postings[t].size() documents
  /// it lists, out of `num_documents`.
  void Build(const std::vector<std::vector<uint32_t>>& postings,
             size_t num_documents);

  /// Vectorizes one document's term ids, in word order with duplicates
  /// (term frequency counts them). Every id must be below
  /// vocabulary_size().
  SparseVector Vectorize(std::span<const uint32_t> terms) const;

  /// Number of distinct terms in the vocabulary.
  size_t vocabulary_size() const { return idf_.size(); }

 private:
  std::vector<float> idf_;
};

}  // namespace sablock::text

#endif  // SABLOCK_TEXT_TFIDF_H_
