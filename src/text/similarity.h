#ifndef SABLOCK_TEXT_SIMILARITY_H_
#define SABLOCK_TEXT_SIMILARITY_H_

#include <functional>
#include <string>
#include <string_view>

namespace sablock::text {

/// Levenshtein (edit) distance with unit costs.
int EditDistance(std::string_view a, std::string_view b);

/// Edit-distance similarity in [0, 1]: 1 - dist / max(|a|, |b|).
/// Two empty strings are defined to have similarity 1.
double EditSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1] with the standard prefix scale 0.1 and
/// max prefix length 4.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Q-gram similarity: Jaccard coefficient of the padded q-gram sets.
double QGramSimilarity(std::string_view a, std::string_view b, int q);

/// Bigram similarity (q-gram similarity with q = 2), the "bigram" string
/// comparator used in blocking-survey parameter grids.
double BigramSimilarity(std::string_view a, std::string_view b);

/// Longest-common-substring similarity: repeatedly removes the longest
/// common substring (of length >= min_len) from both strings and sums the
/// removed lengths; similarity = total / max(|a|, |b|). This is the LCS
/// comparator of the record-linkage literature (Friedman & Sideli style).
double LcsSimilarity(std::string_view a, std::string_view b, int min_len = 2);

/// Token-set Jaccard similarity over whitespace-separated words.
double TokenJaccardSimilarity(std::string_view a, std::string_view b);

/// Exact-match similarity: 1 if equal, else 0.
double ExactSimilarity(std::string_view a, std::string_view b);

/// Named string similarity function, used to sweep comparator choices in the
/// baseline parameter grids (Table 3 reproductions).
using StringSimilarityFn =
    std::function<double(std::string_view, std::string_view)>;

/// Returns the comparator for a grid name: "jaro_winkler", "bigram",
/// "edit", "lcs", "jaccard_token", "exact". Aborts on unknown names.
StringSimilarityFn SimilarityByName(const std::string& name);

}  // namespace sablock::text

#endif  // SABLOCK_TEXT_SIMILARITY_H_
