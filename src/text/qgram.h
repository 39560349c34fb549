#ifndef SABLOCK_TEXT_QGRAM_H_
#define SABLOCK_TEXT_QGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sablock::text {

/// Extracts the (overlapping) q-grams of `s`. If `padded`, the string is
/// framed with q-1 copies of '#' / '$' so that prefixes/suffixes form
/// distinguishable grams (the convention used by q-gram blocking indexes).
/// Strings shorter than q yield the whole string as a single gram.
std::vector<std::string> QGrams(std::string_view s, int q,
                                bool padded = false);

/// Sorted, deduplicated q-gram set (the set representation used by Jaccard
/// similarity and shingling).
std::vector<std::string> QGramSet(std::string_view s, int q,
                                  bool padded = false);

/// 64-bit hashes of the distinct q-grams of `s`, sorted and deduplicated.
/// The shingle representation used by minhash (hashing avoids string
/// comparisons in the inner loop).
std::vector<uint64_t> QGramHashes(std::string_view s, int q);

/// Writes QGramHashes(s, q) into a prefix of `out` and returns its length:
/// hashed in place, then sorted and deduplicated there, so a caller
/// building many sets in one array allocates nothing per set. `out` has
/// at least s.size() slots.
size_t QGramHashesInto(std::string_view s, int q, std::span<uint64_t> out);

/// Bulk path under QGramHashes: writes HashBytes(s.substr(i, q)) for every
/// window i into `out` (no sort/dedup, no allocation). Requires q >= 1,
/// s.size() >= q and out.size() == s.size() - q + 1. Runs the FNV-1a
/// chains of four adjacent windows side by side, in scalar code at every
/// dispatch level: SIMD versions of this loop measured no faster.
void QGramWindowHashes(std::string_view s, int q, std::span<uint64_t> out);

/// Jaccard coefficient of two sorted, deduplicated sequences.
double JaccardSorted(const std::vector<std::string>& a,
                     const std::vector<std::string>& b);

/// Jaccard coefficient of two sorted, deduplicated hash sequences.
double JaccardSortedHashes(std::span<const uint64_t> a,
                           std::span<const uint64_t> b);

}  // namespace sablock::text

#endif  // SABLOCK_TEXT_QGRAM_H_
