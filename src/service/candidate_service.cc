#include "service/candidate_service.h"

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "index/index_registry.h"

namespace sablock::service {

void TokenIdColumn::Append(std::span<const std::string_view> values) {
  const size_t begin = ids_.size();
  for (std::string_view value : values) {
    ForEachMatchingToken(value, &buffer_, [&](std::string_view token) {
      auto it = dictionary_.find(token);
      if (it == dictionary_.end()) {
        it = dictionary_
                 .emplace(token, static_cast<uint32_t>(dictionary_.size()))
                 .first;
      }
      ids_.push_back(it->second);
    });
  }
  auto row = ids_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(row, ids_.end());
  ids_.erase(std::unique(row, ids_.end()), ids_.end());
  offsets_.push_back(ids_.size());
}

size_t TokenIdColumn::Lookup(std::span<const std::string_view> values,
                             std::vector<uint32_t>* ids) const {
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

double TokenIdColumn::Jaccard(std::span<const uint32_t> probe,
                              size_t probe_size,
                              std::span<const uint32_t> row) {
  if (probe_size == 0 || row.empty()) return 0.0;
  size_t common = 0;
  size_t p = 0;
  size_t r = 0;
  while (p < probe.size() && r < row.size()) {
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

Status CandidateService::Make(data::Schema schema,
                              const std::string& index_spec,
                              std::unique_ptr<CandidateService>* out) {
  out->reset();
  std::unique_ptr<index::IncrementalIndex> idx;
  Status s = index::IndexRegistry::Global().Create(index_spec, &idx);
  if (!s.ok()) return s;
  s = idx->Bind(schema);
  if (!s.ok()) return s;
  out->reset(new CandidateService(std::move(schema), std::move(idx)));
  return Status::Ok();
}

CandidateService::CandidateService(
    data::Schema schema, std::unique_ptr<index::IncrementalIndex> idx)
    : schema_(std::move(schema)), index_(std::move(idx)) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  insert_seconds_ = registry.GetHistogram(
      "index_insert_seconds", "incremental-index insert latency (lock held)",
      obs::Histogram::LatencyBuckets(), "index", index_->name());
  query_seconds_ = registry.GetHistogram(
      "index_query_seconds", "incremental-index query latency (lock held)",
      obs::Histogram::LatencyBuckets(), "index", index_->name());
}

data::RecordId CandidateService::Insert(
    std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(values.size() == schema_.size(),
                    "value count does not match the schema");
  std::unique_lock lock(mu_);
  WallTimer timer;
  const auto id = static_cast<data::RecordId>(tokens_.size());
  index_->Insert(id, values);
  tokens_.Append(values);
  insert_seconds_->Observe(timer.Seconds());
  inserts_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

size_t CandidateService::Preload(const data::Dataset& dataset) {
  SABLOCK_CHECK_MSG(dataset.schema().size() == schema_.size(),
                    "preload dataset schema does not match the service");
  std::unique_lock lock(mu_);
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    index_->Insert(static_cast<data::RecordId>(tokens_.size()),
                   dataset.Values(id));
    tokens_.Append(dataset.Values(id));
  }
  inserts_.fetch_add(dataset.size(), std::memory_order_relaxed);
  return dataset.size();
}

std::vector<data::RecordId> CandidateService::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(values.size() == schema_.size(),
                    "value count does not match the schema");
  std::shared_lock lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  WallTimer timer;
  std::vector<data::RecordId> ids = index_->Query(values);
  query_seconds_->Observe(timer.Seconds());
  return ids;
}

Status CandidateService::QueryProgressive(
    std::span<const std::string_view> values, const core::Budget& budget,
    std::vector<ScoredCandidate>* out) const {
  SABLOCK_CHECK_MSG(values.size() == schema_.size(),
                    "value count does not match the schema");
  out->clear();
  if (budget.recall_target > 0.0) {
    return Status::Error(
        "budget term 'recall-target' needs ground truth and is eval-only; "
        "use pairs= and/or seconds= for serving");
  }
  std::shared_lock lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  WallTimer timer;
  core::BudgetMeter meter(budget);  // arms the seconds deadline
  std::vector<data::RecordId> ids = index_->Query(values);
  std::vector<uint32_t> probe;
  const size_t probe_size = tokens_.Lookup(values, &probe);
  out->reserve(ids.size());
  for (data::RecordId id : ids) {
    if (meter.budget().seconds > 0.0 && meter.Exhausted()) break;
    out->push_back(
        {id, TokenIdColumn::Jaccard(probe, probe_size, tokens_.Row(id))});
  }
  // Best first, deterministically: the budget keeps the highest-value
  // prefix of the comparison order, which is the whole point.
  std::sort(out->begin(), out->end(),
            [](const ScoredCandidate& x, const ScoredCandidate& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.id < y.id;
            });
  if (out->size() > budget.pairs) {
    out->resize(static_cast<size_t>(budget.pairs));
  }
  query_seconds_->Observe(timer.Seconds());
  return Status::Ok();
}

bool CandidateService::Remove(data::RecordId id) {
  std::unique_lock lock(mu_);
  bool removed = index_->Remove(id);
  if (removed) removes_.fetch_add(1, std::memory_order_relaxed);
  return removed;
}

void CandidateService::EmitBlocks(core::BlockSink& sink) const {
  std::shared_lock lock(mu_);
  index_->EmitBlocks(sink);
}

ServiceStats CandidateService::stats() const {
  std::shared_lock lock(mu_);
  ServiceStats s;
  s.records = index_->size();
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.removes = removes_.load(std::memory_order_relaxed);
  s.index_name = index_->name();
  return s;
}

}  // namespace sablock::service
