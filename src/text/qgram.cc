#include "text/qgram.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"

namespace sablock::text {

std::vector<std::string> QGrams(std::string_view s, int q, bool padded) {
  std::vector<std::string> grams;
  if (q <= 0) return grams;
  std::string text;
  if (padded) {
    text.assign(static_cast<size_t>(q - 1), '#');
    text.append(s);
    text.append(static_cast<size_t>(q - 1), '$');
  } else {
    text.assign(s);
  }
  if (text.empty()) return grams;
  if (text.size() < static_cast<size_t>(q)) {
    grams.push_back(text);
    return grams;
  }
  grams.reserve(text.size() - q + 1);
  for (size_t i = 0; i + q <= text.size(); ++i) {
    grams.emplace_back(text.substr(i, q));
  }
  return grams;
}

std::vector<std::string> QGramSet(std::string_view s, int q, bool padded) {
  std::vector<std::string> grams = QGrams(s, q, padded);
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

void QGramWindowHashes(std::string_view s, int q, std::span<uint64_t> out) {
  SABLOCK_CHECK(q >= 1 && s.size() >= static_cast<size_t>(q));
  SABLOCK_CHECK(out.size() == s.size() - static_cast<size_t>(q) + 1);
  // HashBytes seeds every chain with basis ^ Mix64(seed), here with the
  // seed 0 mixed once, so the per-window loop is pure FNV-1a.
  const uint64_t basis = kFnv1aOffsetBasis ^ Mix64(0);
  const unsigned char* data = reinterpret_cast<const unsigned char*>(s.data());
  const size_t count = out.size();
  const size_t width = static_cast<size_t>(q);
  size_t i = 0;
  // Four independent FNV chains per iteration: each chain is a strict
  // xor->multiply dependency, but adjacent windows are independent, so
  // interleaving them hides the 64-bit multiply latency.
  for (; i + 4 <= count; i += 4) {
    uint64_t h0 = basis, h1 = basis, h2 = basis, h3 = basis;
    for (size_t j = 0; j < width; ++j) {
      h0 = (h0 ^ data[i + j]) * kFnv1aPrime;
      h1 = (h1 ^ data[i + 1 + j]) * kFnv1aPrime;
      h2 = (h2 ^ data[i + 2 + j]) * kFnv1aPrime;
      h3 = (h3 ^ data[i + 3 + j]) * kFnv1aPrime;
    }
    out[i] = h0;
    out[i + 1] = h1;
    out[i + 2] = h2;
    out[i + 3] = h3;
  }
  for (; i < count; ++i) {
    uint64_t h = basis;
    for (size_t j = 0; j < width; ++j) h = (h ^ data[i + j]) * kFnv1aPrime;
    out[i] = h;
  }
}

std::vector<uint64_t> QGramHashes(std::string_view s, int q) {
  std::vector<uint64_t> hashes(s.size());
  hashes.resize(QGramHashesInto(s, q, hashes));
  return hashes;
}

size_t QGramHashesInto(std::string_view s, int q, std::span<uint64_t> out) {
  if (q <= 0 || s.empty()) return 0;
  if (s.size() < static_cast<size_t>(q)) {
    out[0] = HashBytes(s);
    return 1;
  }
  const std::span<uint64_t> set = out.first(s.size() - q + 1);
  QGramWindowHashes(s, q, set);
  std::sort(set.begin(), set.end());
  return static_cast<size_t>(std::unique(set.begin(), set.end()) -
                             set.begin());
}

namespace {

template <typename T>
double JaccardImpl(std::span<const T> a, std::span<const T> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0;
  size_t j = 0;
  size_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - common;
  return static_cast<double>(common) / static_cast<double>(uni);
}

}  // namespace

double JaccardSorted(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  return JaccardImpl<std::string>(a, b);
}

double JaccardSortedHashes(std::span<const uint64_t> a,
                           std::span<const uint64_t> b) {
  return JaccardImpl(a, b);
}

}  // namespace sablock::text
