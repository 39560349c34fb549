#include "common/string_util.h"

#include <cctype>
#include <cstdio>

namespace sablock {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWords(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string NormalizeWhitespace(std::string_view s) {
  return Join(SplitWords(s), " ");
}

std::string NormalizeForMatching(std::string_view s) {
  std::string mapped;
  mapped.reserve(s.size());
  for (char c : s) {
    char m = MatchingChar(c);
    mapped.push_back(m != 0 ? m : ' ');
  }
  return NormalizeWhitespace(mapped);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace sablock
