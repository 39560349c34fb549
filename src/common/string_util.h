#ifndef SABLOCK_COMMON_STRING_UTIL_H_
#define SABLOCK_COMMON_STRING_UTIL_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace sablock {

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of whitespace; drops empty fields.
std::vector<std::string> SplitWords(std::string_view s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Collapses internal whitespace runs to single spaces and trims the ends.
std::string NormalizeWhitespace(std::string_view s);

/// The byte map of matching normalization: an ASCII letter or digit maps
/// to its lowercase, every other byte to 0 (a separator).
inline char MatchingChar(char c) {
  static constexpr std::array<char, 256> kMap = [] {
    std::array<char, 256> map{};
    for (char d = '0'; d <= '9'; ++d) map[static_cast<unsigned char>(d)] = d;
    for (char l = 'a'; l <= 'z'; ++l) {
      map[static_cast<unsigned char>(l)] = l;
      map[static_cast<unsigned char>(l - 'a' + 'A')] = l;
    }
    return map;
  }();
  return kMap[static_cast<unsigned char>(c)];
}

/// Lowercases and keeps only [a-z0-9 ]; other characters become spaces and
/// whitespace is normalized. The canonical text normalization applied before
/// q-gram shingling and blocking-key generation.
std::string NormalizeForMatching(std::string_view s);

/// Calls `fn(token)` for each token of SplitWords(NormalizeForMatching(s)),
/// in order, without building either intermediate: the tokens are the
/// maximal runs of ASCII letters and digits, lowercased. Each token is
/// lowercased into `*buffer` and passed as a view valid until `fn`
/// returns. Nothing is allocated beyond `*buffer` growing to the longest
/// token, so a buffer reused across calls makes tokenizing allocation-free.
template <typename Fn>
void ForEachMatchingToken(std::string_view s, std::string* buffer, Fn&& fn) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && MatchingChar(s[i]) == 0) ++i;
    const size_t start = i;
    while (i < s.size() && MatchingChar(s[i]) != 0) ++i;
    if (i == start) return;
    buffer->resize(i - start);
    for (size_t j = start; j < i; ++j) {
      (*buffer)[j - start] = MatchingChar(s[j]);
    }
    fn(std::string_view(*buffer));
  }
}

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats a double with `digits` decimal places (locale-independent).
std::string FormatDouble(double value, int digits);

}  // namespace sablock

#endif  // SABLOCK_COMMON_STRING_UTIL_H_
