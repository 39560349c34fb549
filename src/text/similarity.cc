#include "text/similarity.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "text/qgram.h"

namespace sablock::text {

int EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  std::vector<int> row(n + 1);
  for (size_t i = 0; i <= n; ++i) row[i] = static_cast<int>(i);
  for (size_t j = 1; j <= m; ++j) {
    int prev_diag = row[0];
    row[0] = static_cast<int>(j);
    for (size_t i = 1; i <= n; ++i) {
      int del = row[i] + 1;
      int ins = row[i - 1] + 1;
      int sub = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min({del, ins, sub});
    }
  }
  return row[n];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int window = std::max(0, std::max(la, lb) / 2 - 1);
  std::vector<bool> matched_a(a.size(), false);
  std::vector<bool> matched_b(b.size(), false);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!matched_b[j] && a[i] == b[j]) {
        matched_a[i] = true;
        matched_b[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = matches;
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  int prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] == b[i]) {
      ++prefix;
    } else {
      break;
    }
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

double QGramSimilarity(std::string_view a, std::string_view b, int q) {
  if (a.empty() && b.empty()) return 1.0;
  return JaccardSorted(QGramSet(a, q, /*padded=*/true),
                       QGramSet(b, q, /*padded=*/true));
}

double BigramSimilarity(std::string_view a, std::string_view b) {
  return QGramSimilarity(a, b, 2);
}

namespace {

// Finds the longest common substring and its positions; returns length.
int FindLcsPositions(const std::string& a, const std::string& b, size_t* pa,
                     size_t* pb) {
  if (a.empty() || b.empty()) return 0;
  std::vector<int> row(b.size() + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= a.size(); ++i) {
    int prev_diag = 0;
    for (size_t j = 1; j <= b.size(); ++j) {
      int cur = row[j];
      row[j] = (a[i - 1] == b[j - 1]) ? prev_diag + 1 : 0;
      if (row[j] > best) {
        best = row[j];
        *pa = i - best;
        *pb = j - best;
      }
      prev_diag = cur;
    }
  }
  return best;
}

}  // namespace

double LcsSimilarity(std::string_view a, std::string_view b, int min_len) {
  if (a == b) return 1.0;  // identity, even below min_len
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  // Canonicalize the argument order: repeated longest-substring extraction
  // breaks ties by position, so (a, b) and (b, a) could otherwise remove
  // different fragments and yield asymmetric scores.
  if (b.size() < a.size() || (a.size() == b.size() && b < a)) {
    std::swap(a, b);
  }
  std::string sa(a);
  std::string sb(b);
  double total = 0.0;
  while (true) {
    size_t pa = 0;
    size_t pb = 0;
    int len = FindLcsPositions(sa, sb, &pa, &pb);
    if (len < min_len) break;
    total += len;
    sa.erase(pa, len);
    sb.erase(pb, len);
    if (sa.empty() || sb.empty()) break;
  }
  return total / static_cast<double>(longest);
}

double TokenJaccardSimilarity(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = SplitWords(a);
  std::vector<std::string> tb = SplitWords(b);
  std::sort(ta.begin(), ta.end());
  ta.erase(std::unique(ta.begin(), ta.end()), ta.end());
  std::sort(tb.begin(), tb.end());
  tb.erase(std::unique(tb.begin(), tb.end()), tb.end());
  return JaccardSorted(ta, tb);
}

double ExactSimilarity(std::string_view a, std::string_view b) {
  return a == b ? 1.0 : 0.0;
}

StringSimilarityFn SimilarityByName(const std::string& name) {
  if (name == "jaro_winkler") {
    return [](std::string_view a, std::string_view b) {
      return JaroWinklerSimilarity(a, b);
    };
  }
  if (name == "bigram") {
    return [](std::string_view a, std::string_view b) {
      return BigramSimilarity(a, b);
    };
  }
  if (name == "edit") {
    return [](std::string_view a, std::string_view b) {
      return EditSimilarity(a, b);
    };
  }
  if (name == "lcs") {
    return [](std::string_view a, std::string_view b) {
      return LcsSimilarity(a, b);
    };
  }
  if (name == "jaccard_token") {
    return [](std::string_view a, std::string_view b) {
      return TokenJaccardSimilarity(a, b);
    };
  }
  if (name == "exact") {
    return [](std::string_view a, std::string_view b) {
      return ExactSimilarity(a, b);
    };
  }
  SABLOCK_CHECK_MSG(false, ("unknown similarity function: " + name).c_str());
  return nullptr;
}

}  // namespace sablock::text
