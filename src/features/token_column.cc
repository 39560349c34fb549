#include "features/token_column.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace sablock::features {

Status TokenColumn::Load(std::vector<std::string> vocabulary,
                         std::span<const uint64_t> counts,
                         std::span<const uint64_t> ids, TokenColumn* out) {
  if (vocabulary.size() > UINT32_MAX) {
    return Status::Error("token column vocabulary too large");
  }
  TokenColumn column;
  column.dictionary_.reserve(vocabulary.size());
  column.vocabulary_.reserve(vocabulary.size());
  for (std::string& token : vocabulary) {
    auto [it, fresh] = column.dictionary_.try_emplace(
        std::move(token), static_cast<TokenId>(column.vocabulary_.size()));
    if (!fresh) {
      return Status::Error("token column repeats vocabulary string '" +
                           it->first + "'");
    }
    column.vocabulary_.push_back(it->first);
  }
  std::vector<TokenId> known;
  known.reserve(ids.size());
  for (uint64_t id : ids) {
    if (id >= column.vocabulary_.size()) {
      return Status::Error("token column id out of vocabulary range");
    }
    known.push_back(static_cast<TokenId>(id));
  }
  Status s =
      Rows<TokenId>::FromCounts(counts, std::move(known), "ids", &column.rows_);
  if (!s.ok()) return Status::Error("token column " + s.message());
  *out = std::move(column);
  return Status::Ok();
}

void TokenColumn::Append(std::span<const std::string_view> values) {
  rows_.AppendRow([&](std::vector<TokenId>& ids) {
    const size_t begin = ids.size();
    fresh_.clear();
    for (std::string_view value : values) {
      ForEachMatchingToken(value, &buffer_, [&](std::string_view token) {
        auto it = dictionary_.find(token);
        if (it != dictionary_.end()) {
          ids.push_back(it->second);
        } else {
          fresh_.emplace_back(token);
        }
      });
    }
    // The row's new tokens take the next ids in ascending string order.
    std::sort(fresh_.begin(), fresh_.end());
    fresh_.erase(std::unique(fresh_.begin(), fresh_.end()), fresh_.end());
    for (std::string& token : fresh_) {
      const auto id = static_cast<TokenId>(vocabulary_.size());
      auto it = dictionary_.emplace(std::move(token), id).first;
      vocabulary_.push_back(it->first);
      ids.push_back(id);
    }
    auto row = ids.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(row, ids.end());
    ids.erase(std::unique(row, ids.end()), ids.end());
  });
}

size_t TokenColumn::Lookup(std::span<const std::string_view> values,
                           std::vector<TokenId>* ids) const {
  ids->clear();
  std::vector<std::string> unknown;  // stays empty for known tokens
  std::string buffer;
  for (std::string_view value : values) {
    ForEachMatchingToken(value, &buffer, [&](std::string_view token) {
      auto it = dictionary_.find(token);
      if (it != dictionary_.end()) {
        ids->push_back(it->second);
      } else {
        unknown.emplace_back(token);
      }
    });
  }
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  std::sort(unknown.begin(), unknown.end());
  unknown.erase(std::unique(unknown.begin(), unknown.end()), unknown.end());
  return ids->size() + unknown.size();
}

double TokenColumn::Jaccard(std::span<const TokenId> probe,
                            size_t probe_size, std::span<const TokenId> row) {
  if (probe_size == 0 || row.empty()) return 0.0;
  size_t common = 0;
  for (size_t p = 0, r = 0; p < probe.size() && r < row.size();) {
    if (probe[p] < row[r]) {
      ++p;
    } else if (row[r] < probe[p]) {
      ++r;
    } else {
      ++common;
      ++p;
      ++r;
    }
  }
  return static_cast<double>(common) /
         static_cast<double>(probe_size + row.size() - common);
}

}  // namespace sablock::features
