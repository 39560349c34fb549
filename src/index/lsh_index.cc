#include "index/lsh_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "index/sorted_ids.h"
#include "text/qgram.h"

namespace sablock::index {

namespace {

/// Resolves the blocking attributes to schema positions; error on any
/// attribute the schema does not have.
Status ResolveAttributes(const data::Schema& schema,
                         const std::vector<std::string>& attributes,
                         std::vector<int>* out) {
  out->clear();
  for (const std::string& attr : attributes) {
    int idx = schema.IndexOf(attr);
    if (idx < 0) {
      return Status::Error("index attribute '" + attr +
                           "' is not in the schema");
    }
    out->push_back(idx);
  }
  return Status::Ok();
}

/// The record's minhash signature, computed exactly as the batch pipeline
/// does: blocking text (non-empty attribute values joined by spaces,
/// normalized) -> distinct q-gram hashes -> minhash rows.
std::vector<uint64_t> RowSignature(std::span<const std::string_view> values,
                                   const std::vector<int>& attr_index, int q,
                                   const core::MinHasher& hasher) {
  std::string joined;
  for (int idx : attr_index) {
    std::string_view v = values[static_cast<size_t>(idx)];
    if (v.empty()) continue;
    if (!joined.empty()) joined.push_back(' ');
    joined.append(v);
  }
  std::vector<uint64_t> shingles =
      text::QGramHashes(NormalizeForMatching(joined), q);
  return hasher.Signature(shingles);
}

using Table = std::unordered_map<uint64_t, std::vector<data::RecordId>>;

/// Streams each table's buckets with >= 2 records, table by table, in
/// canonical content order (bucket ids are already ascending).
void EmitTables(const std::vector<Table>& tables, core::BlockSink& sink) {
  for (const auto& table : tables) {
    if (sink.Done()) return;
    std::vector<core::Block> kept;
    for (const auto& [key, ids] : table) {
      if (ids.size() >= 2) kept.push_back(ids);
    }
    core::EmitSorted(std::move(kept), sink);
  }
}

}  // namespace

// ---------------------------------------------------------------- LshIndex

LshIndex::LshIndex(core::LshParams params)
    : params_(std::move(params)),
      hasher_(params_.k * params_.l, params_.seed) {
  SABLOCK_CHECK(params_.k >= 1 && params_.l >= 1 && params_.q >= 1);
  tables_.resize(static_cast<size_t>(params_.l));
}

std::string LshIndex::name() const {
  return "LshIndex(k=" + std::to_string(params_.k) +
         ",l=" + std::to_string(params_.l) + ")";
}

Status LshIndex::Bind(const data::Schema& schema) {
  SABLOCK_CHECK_MSG(!bound_, "index already bound");
  Status s = ResolveAttributes(schema, params_.attributes, &attr_index_);
  if (!s.ok()) return s;
  bound_ = true;
  return Status::Ok();
}

std::vector<uint64_t> LshIndex::SignatureOf(
    std::span<const std::string_view> values) const {
  return RowSignature(values, attr_index_, params_.q, hasher_);
}

void LshIndex::Insert(data::RecordId id,
                      std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  SABLOCK_CHECK_MSG(record_bands_.count(id) == 0, "record id already live");
  std::vector<uint64_t> sig = SignatureOf(values);
  std::vector<uint64_t> bands;
  if (!core::IsEmptyMinhashSignature(sig)) {
    bands.reserve(static_cast<size_t>(params_.l));
    for (int t = 0; t < params_.l; ++t) {
      uint64_t band = core::LshBandKey(sig, t, params_.k);
      InsertSortedId(&tables_[static_cast<size_t>(t)][band], id);
      bands.push_back(band);
    }
  }
  record_bands_.emplace(id, std::move(bands));
}

bool LshIndex::Remove(data::RecordId id) {
  auto it = record_bands_.find(id);
  if (it == record_bands_.end()) return false;
  for (int t = 0; t < static_cast<int>(it->second.size()); ++t) {
    auto& table = tables_[static_cast<size_t>(t)];
    auto bucket = table.find(it->second[static_cast<size_t>(t)]);
    SABLOCK_CHECK(bucket != table.end());
    EraseSortedId(&bucket->second, id);
    if (bucket->second.empty()) table.erase(bucket);
  }
  record_bands_.erase(it);
  return true;
}

std::vector<data::RecordId> LshIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  std::vector<uint64_t> sig = SignatureOf(values);
  std::vector<data::RecordId> out;
  if (core::IsEmptyMinhashSignature(sig)) return out;
  for (int t = 0; t < params_.l; ++t) {
    auto it = tables_[static_cast<size_t>(t)].find(
        core::LshBandKey(sig, t, params_.k));
    if (it == tables_[static_cast<size_t>(t)].end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void LshIndex::EmitBlocks(core::BlockSink& sink) const {
  EmitTables(tables_, sink);
}

// -------------------------------------------------------------- SaLshIndex

SaLshIndex::SaLshIndex(
    core::LshParams lsh_params, core::SemanticParams sem_params,
    std::shared_ptr<const core::SemanticFunction> semantics)
    : lsh_params_(std::move(lsh_params)),
      sem_params_(sem_params),
      semantics_(std::move(semantics)),
      hasher_(lsh_params_.k * lsh_params_.l, lsh_params_.seed) {
  SABLOCK_CHECK(lsh_params_.k >= 1 && lsh_params_.l >= 1 &&
                lsh_params_.q >= 1);
  SABLOCK_CHECK(semantics_ != nullptr);
  SABLOCK_CHECK(sem_params_.w >= 1);
  tables_.resize(static_cast<size_t>(lsh_params_.l));
}

std::string SaLshIndex::name() const {
  return "SaLshIndex(k=" + std::to_string(lsh_params_.k) +
         ",l=" + std::to_string(lsh_params_.l) +
         ",w=" + std::to_string(sem_params_.w) +
         (sem_params_.mode == core::SemanticMode::kAnd ? ",AND)" : ",OR)");
}

Status SaLshIndex::Bind(const data::Schema& schema) {
  SABLOCK_CHECK_MSG(!bound_, "index already bound");
  Status s = ResolveAttributes(schema, lsh_params_.attributes, &attr_index_);
  if (!s.ok()) return s;
  schema_ = schema;
  encoder_ = core::SemhashEncoder::Build(semantics_->taxonomy(), {});
  bound_ = true;
  return Status::Ok();
}

std::vector<uint64_t> SaLshIndex::SignatureOf(
    std::span<const std::string_view> values) const {
  return RowSignature(values, attr_index_, lsh_params_.q, hasher_);
}

std::vector<core::ConceptId> SaLshIndex::InterpretRow(
    std::span<const std::string_view> values) const {
  // Semantic functions are record-isolated (Definition 4.2b), so a
  // one-row scratch dataset interprets identically to the full dataset.
  data::Dataset row(schema_);
  row.AddRow(values);
  return semantics_->Interpret(row, 0);
}

void SaLshIndex::TableKeys(int t, const std::vector<uint64_t>& sig,
                           const core::SemSignature& sem,
                           std::vector<uint64_t>* keys) const {
  keys->clear();
  uint64_t band = core::LshBandKey(sig, t, lsh_params_.k);
  if (encoder_.dimension() == 0) {
    // No record has any semantic feature: the batch blocker degenerates
    // to plain textual LSH, and so does the index.
    keys->push_back(band);
    return;
  }
  core::AppendSemanticBucketKeys(band, sem, sem_params_.mode,
                                 chosen_[static_cast<size_t>(t)], keys);
}

void SaLshIndex::RefreshChoices() {
  chosen_.assign(static_cast<size_t>(lsh_params_.l), {});
  if (encoder_.dimension() == 0) return;
  for (int t = 0; t < lsh_params_.l; ++t) {
    chosen_[static_cast<size_t>(t)] =
        core::SemanticTableChoices(sem_params_, encoder_.dimension(), t);
  }
}

void SaLshIndex::InsertIntoTables(data::RecordId id,
                                  const RecordState& state) {
  if (core::IsEmptyMinhashSignature(state.sig)) return;
  core::SemSignature sem =
      encoder_.Encode(semantics_->taxonomy(), state.zeta);
  std::vector<uint64_t> keys;
  for (int t = 0; t < lsh_params_.l; ++t) {
    TableKeys(t, state.sig, sem, &keys);
    for (uint64_t key : keys) {
      InsertSortedId(&tables_[static_cast<size_t>(t)][key], id);
    }
  }
}

void SaLshIndex::RemoveFromTables(data::RecordId id,
                                  const RecordState& state) {
  if (core::IsEmptyMinhashSignature(state.sig)) return;
  core::SemSignature sem =
      encoder_.Encode(semantics_->taxonomy(), state.zeta);
  std::vector<uint64_t> keys;
  for (int t = 0; t < lsh_params_.l; ++t) {
    TableKeys(t, state.sig, sem, &keys);
    auto& table = tables_[static_cast<size_t>(t)];
    for (uint64_t key : keys) {
      auto bucket = table.find(key);
      SABLOCK_CHECK(bucket != table.end());
      EraseSortedId(&bucket->second, id);
      if (bucket->second.empty()) table.erase(bucket);
    }
  }
}

void SaLshIndex::RebuildTables() {
  for (auto& table : tables_) table.clear();
  for (const auto& [id, state] : records_) {
    InsertIntoTables(id, state);
  }
}

void SaLshIndex::Insert(data::RecordId id,
                        std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  SABLOCK_CHECK_MSG(records_.count(id) == 0, "record id already live");
  RecordState state;
  state.sig = SignatureOf(values);
  state.zeta = InterpretRow(values);

  bool fresh_concepts = false;
  for (core::ConceptId c : state.zeta) {
    if (seen_concepts_.insert(c).second) fresh_concepts = true;
  }
  auto [it, inserted] = records_.emplace(id, std::move(state));
  SABLOCK_CHECK(inserted);

  if (fresh_concepts) {
    // A previously unseen concept can add semhash features. Rebuild the
    // encoder from the live interpretations (Algorithm 1 is a set union,
    // so the result is order-independent and equals the batch encoder);
    // only a grown feature set forces the tables to be rebuilt.
    std::vector<std::vector<core::ConceptId>> zetas;
    zetas.reserve(records_.size());
    for (const auto& [rid, rstate] : records_) zetas.push_back(rstate.zeta);
    core::SemhashEncoder rebuilt =
        core::SemhashEncoder::Build(semantics_->taxonomy(), zetas);
    bool same = rebuilt.dimension() == encoder_.dimension();
    for (uint32_t i = 0; same && i < rebuilt.dimension(); ++i) {
      same = rebuilt.FeatureConcept(i) == encoder_.FeatureConcept(i);
    }
    if (!same) {
      encoder_ = std::move(rebuilt);
      RefreshChoices();
      RebuildTables();
      return;
    }
  }
  InsertIntoTables(id, it->second);
}

bool SaLshIndex::Remove(data::RecordId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  // Features are never un-selected on removal (see the class comment), so
  // the current encoder is exactly the one the record was bucketed under.
  RemoveFromTables(id, it->second);
  records_.erase(it);
  return true;
}

std::vector<data::RecordId> SaLshIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  std::vector<data::RecordId> out;
  std::vector<uint64_t> sig = SignatureOf(values);
  if (core::IsEmptyMinhashSignature(sig)) return out;
  // The probe is evaluated under the current feature set; concepts no
  // live record has yet contribute no semhash bit (matching how a batch
  // run without the probe would gate the existing records).
  core::SemSignature sem =
      encoder_.Encode(semantics_->taxonomy(), InterpretRow(values));
  std::vector<uint64_t> keys;
  for (int t = 0; t < lsh_params_.l; ++t) {
    TableKeys(t, sig, sem, &keys);
    const auto& table = tables_[static_cast<size_t>(t)];
    for (uint64_t key : keys) {
      auto it = table.find(key);
      if (it == table.end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void SaLshIndex::EmitBlocks(core::BlockSink& sink) const {
  EmitTables(tables_, sink);
}

}  // namespace sablock::index
