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
  column.offsets_.reserve(counts.size() + 1);
  column.ids_.reserve(ids.size());
  for (size_t row = 0; row < counts.size(); ++row) {
    const size_t begin = column.ids_.size();
    if (counts[row] > ids.size() - begin) {
      return Status::Error("token column counts exceed its ids");
    }
    for (size_t i = begin; i < begin + counts[row]; ++i) {
      if (ids[i] >= column.vocabulary_.size()) {
        return Status::Error("token column id out of vocabulary range");
      }
      if (i > begin && ids[i] <= ids[i - 1]) {
        return Status::Error("token column row " + std::to_string(row) +
                             " ids are not strictly ascending");
      }
      column.ids_.push_back(static_cast<TokenId>(ids[i]));
    }
    column.offsets_.push_back(column.ids_.size());
  }
  if (column.ids_.size() != ids.size()) {
    return Status::Error("token column counts do not cover its ids");
  }
  *out = std::move(column);
  return Status::Ok();
}

void TokenColumn::Append(std::span<const std::string_view> values) {
  const size_t begin = ids_.size();
  fresh_.clear();
  for (std::string_view value : values) {
    ForEachMatchingToken(value, &buffer_, [&](std::string_view token) {
      auto it = dictionary_.find(token);
      if (it != dictionary_.end()) {
        ids_.push_back(it->second);
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
    ids_.push_back(id);
  }
  auto row = ids_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(row, ids_.end());
  ids_.erase(std::unique(row, ids_.end()), ids_.end());
  offsets_.push_back(ids_.size());
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
