#include "index/lsh_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "index/sorted_ids.h"
#include "text/qgram.h"

namespace sablock::index {

namespace {

/// The record's l band keys, computed exactly as the batch pipeline
/// does: blocking text (non-empty attribute values joined by spaces,
/// normalized) -> distinct q-gram hashes -> minhash rows -> one key per
/// table. Empty for an empty shingle set, which enters no table.
std::vector<uint64_t> RowBands(std::span<const std::string_view> values,
                               const std::vector<int>& attr_index,
                               const core::LshParams& params,
                               const core::MinHasher& hasher) {
  std::string joined;
  for (int idx : attr_index) {
    std::string_view v = values[static_cast<size_t>(idx)];
    if (v.empty()) continue;
    if (!joined.empty()) joined.push_back(' ');
    joined.append(v);
  }
  std::vector<uint64_t> sig =
      hasher.Signature(text::QGramHashes(NormalizeForMatching(joined),
                                         params.q));
  std::vector<uint64_t> bands;
  if (core::IsEmptyMinhashSignature(sig)) return bands;
  bands.reserve(static_cast<size_t>(params.l));
  for (int t = 0; t < params.l; ++t) {
    bands.push_back(core::LshBandKey(sig, t, params.k));
  }
  return bands;
}

}  // namespace

LshIndex::LshIndex(core::LshParams params)
    : params_(std::move(params)),
      hasher_(params_.k * params_.l, params_.seed) {
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
  attr_index_.clear();
  for (const std::string& attr : params_.attributes) {
    const int idx = schema.IndexOf(attr);
    if (idx < 0) {
      return Status::Error("index attribute '" + attr +
                           "' is not in the schema");
    }
    attr_index_.push_back(idx);
  }
  schema_ = schema;
  bound_ = true;
  return Status::Ok();
}

core::SemSignature LshIndex::Encode(
    const std::vector<core::ConceptId>& zeta) const {
  if (encoder_.dimension() == 0) return {};
  return encoder_.Encode(semantics_->taxonomy(), zeta);
}

template <typename Fn>
void LshIndex::ForEachBucketKey(const std::vector<uint64_t>& bands,
                                const core::SemSignature& sem,
                                Fn fn) const {
  std::vector<uint64_t> keys;
  for (size_t t = 0; t < bands.size(); ++t) {
    if (encoder_.dimension() == 0) {
      fn(t, bands[t]);
      continue;
    }
    keys.clear();
    core::AppendSemanticBucketKeys(bands[t], sem, sem_params_.mode,
                                   chosen_[t], &keys);
    for (uint64_t key : keys) fn(t, key);
  }
}

void LshIndex::InsertIntoTables(data::RecordId id, const RecordState& state) {
  if (state.bands.empty()) return;
  ForEachBucketKey(state.bands, Encode(state.zeta),
                   [&](size_t t, uint64_t key) {
                     InsertSortedId(&tables_[t][key], id);
                   });
}

void LshIndex::Insert(data::RecordId id,
                      std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  SABLOCK_CHECK_MSG(records_.count(id) == 0, "record id already live");
  RecordState state;
  state.bands = RowBands(values, attr_index_, params_, hasher_);
  bool fresh_concepts = false;
  if (semantics_ != nullptr) {
    state.zeta = semantics_->Interpret(schema_, values);
    for (core::ConceptId c : state.zeta) {
      if (seen_concepts_.insert(c).second) fresh_concepts = true;
    }
  }
  const auto it = records_.emplace(id, std::move(state)).first;

  if (fresh_concepts) {
    // A previously unseen concept can add semhash features. Algorithm 1
    // is a set union over the interpreted concepts' leaves, so the
    // encoder of every concept seen so far equals the batch encoder of
    // the records inserted so far, and it only ever grows: a changed
    // dimension means new features, which force the tables to be rebuilt.
    const std::vector<core::ConceptId> seen(seen_concepts_.begin(),
                                            seen_concepts_.end());
    core::SemhashEncoder grown =
        core::SemhashEncoder::Build(semantics_->taxonomy(), {seen});
    if (grown.dimension() != encoder_.dimension()) {
      encoder_ = std::move(grown);
      chosen_.clear();
      for (int t = 0; t < params_.l; ++t) {
        chosen_.push_back(core::SemanticTableChoices(
            sem_params_, encoder_.dimension(), t));
      }
      for (auto& table : tables_) table.clear();
      for (const auto& [rid, rstate] : records_) InsertIntoTables(rid, rstate);
      return;
    }
  }
  InsertIntoTables(id, it->second);
}

bool LshIndex::Remove(data::RecordId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  // Features are never un-selected on removal (see the class comment), so
  // the current encoder is exactly the one the record was bucketed under.
  const RecordState& state = it->second;
  ForEachBucketKey(state.bands, Encode(state.zeta),
                   [&](size_t t, uint64_t key) {
                     auto& table = tables_[t];
                     auto bucket = table.find(key);
                     SABLOCK_CHECK(bucket != table.end());
                     EraseSortedId(&bucket->second, id);
                     if (bucket->second.empty()) table.erase(bucket);
                   });
  records_.erase(it);
  return true;
}

std::vector<data::RecordId> LshIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  const std::vector<uint64_t> bands =
      RowBands(values, attr_index_, params_, hasher_);
  // The probe is evaluated under the current feature set; concepts no
  // indexed record has had yet contribute no semhash bit (matching how a
  // batch run without the probe would gate the existing records).
  core::SemSignature sem;
  if (!bands.empty() && encoder_.dimension() > 0) {
    sem = Encode(semantics_->Interpret(schema_, values));
  }
  std::vector<data::RecordId> out;
  ForEachBucketKey(bands, sem, [&](size_t t, uint64_t key) {
    auto it = tables_[t].find(key);
    if (it != tables_[t].end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void LshIndex::EmitBlocks(core::BlockSink& sink) const {
  // Each table's buckets with >= 2 records, table by table, in canonical
  // content order (bucket ids are already ascending).
  for (const auto& table : tables_) {
    if (sink.Done()) return;
    std::vector<core::Block> kept;
    for (const auto& [key, ids] : table) {
      if (ids.size() >= 2) kept.push_back(ids);
    }
    core::EmitSorted(std::move(kept), sink);
  }
}

}  // namespace sablock::index
