#include "index/lsh_index.h"

#include <algorithm>

#include "common/check.h"
#include "index/sorted_ids.h"

namespace sablock::index {

struct LshIndex::BandScratch {
  std::string text;
  core::LshBander::Scratch bander;
};

LshIndex::LshIndex(core::LshParams params)
    : params_(std::move(params)),
      bander_(params_.q, params_.k, params_.l, params_.seed) {
  SABLOCK_CHECK(params_.k >= 1 && params_.l >= 1 && params_.q >= 1);
  tables_.resize(static_cast<size_t>(params_.l));
}

LshIndex::LshIndex(core::LshParams params, core::SemanticParams sem_params,
                   std::shared_ptr<const core::SemanticFunction> semantics)
    : LshIndex(std::move(params)) {
  SABLOCK_CHECK(semantics != nullptr);
  SABLOCK_CHECK(sem_params.w >= 1);
  sem_params_ = sem_params;
  semantics_ = std::move(semantics);
}

std::string LshIndex::name() const {
  const std::string kl =
      "(k=" + std::to_string(params_.k) + ",l=" + std::to_string(params_.l);
  if (semantics_ == nullptr) return "LshIndex" + kl + ")";
  return "SaLshIndex" + kl + ",w=" + std::to_string(sem_params_.w) +
         (sem_params_.mode == core::SemanticMode::kAnd ? ",AND)" : ",OR)");
}

Status LshIndex::Bind(const data::Schema& schema) {
  SABLOCK_CHECK_MSG(!bound_, "index already bound");
  Status status = ResolveAttributes(schema, params_.attributes, &positions_);
  schema_ = schema;
  bound_ = status.ok();
  return status;
}

void LshIndex::Bands(std::span<const std::string_view> values,
                     BandScratch* scratch,
                     std::vector<uint64_t>* bands) const {
  std::string& text = scratch->text;
  text.resize(data::BlockingTextBound(values, positions_));
  text.resize(data::WriteBlockingText(values, positions_, text));
  bands->resize(static_cast<size_t>(params_.l));
  if (!bander_.Keys(text, &scratch->bander, *bands)) bands->clear();
}

const LshIndex::Entry* LshIndex::Add(data::RecordId id,
                                     std::span<const std::string_view> values,
                                     BandScratch* scratch) {
  SABLOCK_CHECK_MSG(records_.count(id) == 0, "record id already live");
  RecordState state;
  Bands(values, scratch, &state.bands);
  if (semantics_ != nullptr) {
    state.zeta = semantics_->Interpret(schema_, values);
    seen_concepts_.insert(state.zeta.begin(), state.zeta.end());
  }
  return &*records_.emplace_hint(records_.end(), id, std::move(state));
}

bool LshIndex::GrowEncoder(size_t seen) {
  if (seen_concepts_.size() == seen) return false;
  // A previously unseen concept can add semhash features. Algorithm 1 is a
  // set union over the interpreted concepts' leaves, so the encoder of
  // every concept seen so far equals the batch encoder of the records
  // indexed so far, and it only ever grows: a changed dimension means new
  // features, which force the tables to be rebuilt.
  const std::vector<core::ConceptId> concepts(seen_concepts_.begin(),
                                              seen_concepts_.end());
  core::SemhashEncoder grown =
      core::SemhashEncoder::Build(semantics_->taxonomy(), {concepts});
  if (grown.dimension() == encoder_.dimension()) return false;
  encoder_ = std::move(grown);
  chosen_.clear();
  for (int t = 0; t < params_.l; ++t) {
    chosen_.push_back(
        core::SemanticTableChoices(sem_params_, encoder_.dimension(), t));
  }
  std::vector<const Entry*> all;
  all.reserve(records_.size());
  for (const Entry& entry : records_) all.push_back(&entry);
  for (auto& table : tables_) table.clear();
  FillTables(all);
  return true;
}

core::SemSignature LshIndex::Encode(
    const std::vector<core::ConceptId>& zeta) const {
  if (encoder_.dimension() == 0) return {};
  return encoder_.Encode(semantics_->taxonomy(), zeta);
}

template <typename Fn>
void LshIndex::ForEachTableKey(size_t t, uint64_t band,
                               const core::SemSignature& sem,
                               std::vector<uint64_t>* keys, Fn fn) const {
  if (encoder_.dimension() == 0) {
    fn(band);
    return;
  }
  keys->clear();
  core::AppendSemanticBucketKeys(band, sem, sem_params_.mode, chosen_[t],
                                 keys);
  for (uint64_t key : *keys) fn(key);
}

void LshIndex::FillTables(std::span<const Entry* const> entries) {
  std::vector<core::SemSignature> sems;
  sems.reserve(entries.size());
  for (const Entry* entry : entries) sems.push_back(Encode(entry->second.zeta));
  std::vector<uint64_t> keys;
  for (size_t t = 0; t < tables_.size(); ++t) {
    auto& table = tables_[t];
    for (size_t i = 0; i < entries.size(); ++i) {
      const auto& [id, state] = *entries[i];
      if (state.bands.empty()) continue;
      ForEachTableKey(t, state.bands[t], sems[i], &keys, [&](uint64_t key) {
        InsertSortedId(&table[key], id);
      });
    }
  }
}

void LshIndex::Insert(data::RecordId id,
                      std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  const size_t seen = seen_concepts_.size();
  BandScratch scratch;
  const Entry* entry = Add(id, values, &scratch);
  if (!GrowEncoder(seen)) FillTables({&entry, 1});
}

void LshIndex::BulkLoad(data::RecordId first, const data::Dataset& dataset) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede BulkLoad");
  const size_t seen = seen_concepts_.size();
  BandScratch scratch;
  std::vector<const Entry*> added(dataset.size());
  for (data::RecordId i = 0; i < dataset.size(); ++i) {
    added[i] = Add(first + i, dataset.Values(i), &scratch);
  }
  // One encoder check for the whole batch: the union of its concepts is
  // what a per-record Insert loop would have grown the encoder to.
  if (!GrowEncoder(seen)) FillTables(added);
}

bool LshIndex::Remove(data::RecordId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  // Features are never un-selected on removal (see the class comment), so
  // the current encoder is exactly the one the record was bucketed under.
  const RecordState& state = it->second;
  const core::SemSignature sem = Encode(state.zeta);
  std::vector<uint64_t> keys;
  for (size_t t = 0; t < state.bands.size(); ++t) {
    auto& table = tables_[t];
    ForEachTableKey(t, state.bands[t], sem, &keys, [&](uint64_t key) {
      auto bucket = table.find(key);
      SABLOCK_CHECK(bucket != table.end());
      EraseSortedId(&bucket->second, id);
      if (bucket->second.empty()) table.erase(bucket);
    });
  }
  records_.erase(it);
  return true;
}

std::vector<data::RecordId> LshIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  BandScratch scratch;  // local: Query runs under the shared lock
  std::vector<uint64_t> bands;
  Bands(values, &scratch, &bands);
  // The probe is evaluated under the current feature set; concepts no
  // indexed record has had yet contribute no semhash bit (matching how a
  // batch run without the probe would gate the existing records).
  core::SemSignature sem;
  if (!bands.empty() && encoder_.dimension() > 0) {
    sem = Encode(semantics_->Interpret(schema_, values));
  }
  std::vector<data::RecordId> out;
  std::vector<uint64_t> keys;
  for (size_t t = 0; t < bands.size(); ++t) {
    ForEachTableKey(t, bands[t], sem, &keys, [&](uint64_t key) {
      auto it = tables_[t].find(key);
      if (it != tables_[t].end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    });
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void LshIndex::EmitBlocks(core::BlockSink& sink) const {
  // Each table's buckets with >= 2 records, table by table, in canonical
  // content order (bucket ids are already ascending).
  for (const auto& table : tables_) {
    if (sink.Done()) return;
    core::BlockCollection kept;
    for (const auto& [key, ids] : table) {
      if (ids.size() >= 2) kept.Add(ids);
    }
    kept.SortBlocks();
    kept.Drain(sink);
  }
}

}  // namespace sablock::index
