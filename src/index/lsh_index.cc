#include "index/lsh_index.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace sablock::index {
namespace {

/// Sorts (key, slot) entries: a stable counting pass on the keys' top bits,
/// then an insertion sort, which is short work because the keys are hashes
/// and so spread evenly over the top bits.
void SortEntries(std::vector<std::pair<uint64_t, uint32_t>>* entries) {
  const int bits = static_cast<int>(std::bit_width(entries->size()));
  const int shift = 64 - std::max(1, bits);
  std::vector<uint32_t> starts((size_t{1} << (64 - shift)) + 1);
  for (const auto& entry : *entries) ++starts[(entry.first >> shift) + 1];
  std::partial_sum(starts.begin(), starts.end(), starts.begin());
  std::vector<std::pair<uint64_t, uint32_t>> sorted(entries->size());
  for (const auto& entry : *entries) {
    sorted[starts[entry.first >> shift]++] = entry;
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    for (size_t j = i; j > 0 && sorted[j] < sorted[j - 1]; --j) {
      std::swap(sorted[j], sorted[j - 1]);
    }
  }
  *entries = std::move(sorted);
}

}  // namespace

LshIndex::Base LshIndex::Base::Build(Entries* entries) {
  SortEntries(entries);
  Base base;
  base.slots.reserve(entries->size());
  for (uint32_t i = 0; i < entries->size(); ++i) {
    const uint64_t key = (*entries)[i].first;
    if (i == 0 || key != base.keys.back()) {
      base.keys.push_back(key);
      base.offsets.push_back(i);
    }
    base.slots.push_back((*entries)[i].second);
  }
  base.offsets.push_back(static_cast<uint32_t>(entries->size()));
  base.keys.shrink_to_fit();
  base.offsets.shrink_to_fit();
  // About four keys per directory entry.
  const int bits = static_cast<int>(std::bit_width(base.keys.size())) - 2;
  base.shift = 64 - std::max(1, bits);
  base.dir.assign((size_t{1} << (64 - base.shift)) + 1, 0);
  for (uint64_t key : base.keys) ++base.dir[(key >> base.shift) + 1];
  std::partial_sum(base.dir.begin(), base.dir.end(), base.dir.begin());
  return base;
}

std::span<const uint32_t> LshIndex::Base::Find(uint64_t key) const {
  const uint64_t p = key >> shift;
  const auto end = keys.begin() + dir[p + 1];
  const auto it = std::lower_bound(keys.begin() + dir[p], end, key);
  if (it == end || *it != key) return {};
  const auto i = static_cast<size_t>(it - keys.begin());
  return std::span(slots).subspan(offsets[i], offsets[i + 1] - offsets[i]);
}

struct LshIndex::BandScratch {
  std::string text;
  core::LshBander::Scratch bander;
  std::vector<uint64_t> bands;
};

LshIndex::LshIndex(core::LshParams params)
    : params_(std::move(params)),
      bander_(params_.q, params_.k, params_.l, params_.seed),
      keys_(sem_params_, 0, params_.l),
      bases_(static_cast<size_t>(params_.l)),
      deltas_(static_cast<size_t>(params_.l)) {
  SABLOCK_CHECK(params_.k >= 1 && params_.l >= 1 && params_.q >= 1);
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

bool LshIndex::Bands(std::span<const std::string_view> values,
                     BandScratch* scratch) const {
  std::string& text = scratch->text;
  text.resize(data::BlockingTextBound(values, positions_));
  text.resize(data::WriteBlockingText(values, positions_, text));
  scratch->bands.resize(bases_.size());
  return bander_.Keys(text, &scratch->bander, scratch->bands);
}

void LshIndex::Add(data::RecordId id, std::span<const std::string_view> values,
                   BandScratch* scratch) {
  const bool keyed = Bands(values, scratch);
  const auto slot = keyed ? static_cast<uint32_t>(ids_.size()) : kNoSlot;
  SABLOCK_CHECK_MSG(slot_of_.TryEmplace(id, slot).second,
                    "record id already live");
  std::vector<core::ConceptId> zeta;
  if (semantics_ != nullptr) {
    zeta = semantics_->Interpret(schema_, values);
    seen_concepts_.insert(zeta.begin(), zeta.end());
  }
  if (!keyed) return;
  ids_.push_back(id);
  bands_.insert(bands_.end(), scratch->bands.begin(), scratch->bands.end());
  live_.push_back(true);
  zetas_.insert(zetas_.end(), zeta.begin(), zeta.end());
  zeta_offsets_.push_back(static_cast<uint32_t>(zetas_.size()));
}

void LshIndex::Commit(size_t seen, uint32_t from) {
  if (GrowEncoder(seen) || NeedsCompaction()) return Compact();
  const size_t l = deltas_.size();
  const std::vector<core::SemSignature> sems = Signatures(from);
  std::vector<uint64_t> keys;
  for (uint32_t slot = from; slot < ids_.size(); ++slot) {
    for (size_t t = 0; t < l; ++t) {
      keys_.Keys(t, bands_[slot * l + t],
                 sems.empty() ? nullptr : &sems[slot - from], &keys);
      for (uint64_t key : keys) {
        uint32_t* newest = deltas_[t].newest.TryEmplace(key, kNoSlot).first;
        deltas_[t].entries.emplace_back(slot, *newest);
        *newest = static_cast<uint32_t>(deltas_[t].entries.size() - 1);
      }
    }
  }
}

bool LshIndex::GrowEncoder(size_t seen) {
  if (seen_concepts_.size() == seen) return false;
  // A previously unseen concept can add semhash features. Algorithm 1 is a
  // set union over the interpreted concepts' leaves, so the encoder of
  // every concept seen so far equals the batch encoder of the records
  // indexed so far, and it only ever grows: a changed dimension means new
  // features, which change every key.
  const std::vector<core::ConceptId> concepts(seen_concepts_.begin(),
                                              seen_concepts_.end());
  core::SemhashEncoder grown =
      core::SemhashEncoder::Build(semantics_->taxonomy(), {concepts});
  if (grown.dimension() == encoder_.dimension()) return false;
  encoder_ = std::move(grown);
  keys_ = core::LshTableKeys(sem_params_, encoder_.dimension(), params_.l);
  return true;
}

bool LshIndex::NeedsCompaction() const {
  const size_t bound =
      std::max(kCompactionFloor, base_slots_ / kCompactionDivisor);
  return ids_.size() - base_slots_ > bound || dead_ > bound;
}

void LshIndex::Compact() {
  // The live slots, in id order, become slots 0, 1, ...
  const std::vector<uint32_t> order = LiveSlots();
  const size_t l = bases_.size();
  if (order.size() < ids_.size() || !std::ranges::is_sorted(order)) {
    std::vector<data::RecordId> ids;
    std::vector<uint64_t> bands;
    std::vector<uint32_t> zeta_offsets{0};
    std::vector<core::ConceptId> zetas;
    for (uint32_t slot : order) {
      *slot_of_.Find(ids_[slot]) = static_cast<uint32_t>(ids.size());
      ids.push_back(ids_[slot]);
      bands.insert(bands.end(), bands_.begin() + slot * l,
                   bands_.begin() + (slot + 1) * l);
      zetas.insert(zetas.end(), zetas_.begin() + zeta_offsets_[slot],
                   zetas_.begin() + zeta_offsets_[slot + 1]);
      zeta_offsets.push_back(static_cast<uint32_t>(zetas.size()));
    }
    ids_ = std::move(ids);
    bands_ = std::move(bands);
    zeta_offsets_ = std::move(zeta_offsets);
    zetas_ = std::move(zetas);
    live_.assign(ids_.size(), true);
  }
  base_slots_ = static_cast<uint32_t>(ids_.size());
  dead_ = 0;
  ++compactions_;
  // Each table's (key, slot) entries become its base.
  const std::vector<core::SemSignature> sems = Signatures(0);
  Entries entries;
  std::vector<uint64_t> keys;
  for (size_t t = 0; t < l; ++t) {
    entries.clear();
    for (uint32_t slot = 0; slot < base_slots_; ++slot) {
      keys_.Keys(t, bands_[slot * l + t],
                 sems.empty() ? nullptr : &sems[slot], &keys);
      for (uint64_t key : keys) entries.emplace_back(key, slot);
    }
    bases_[t] = Base::Build(&entries);
  }
  deltas_.assign(l, Delta());
}

std::vector<uint32_t> LshIndex::LiveSlots() const {
  std::vector<uint32_t> slots;
  for (uint32_t slot = 0; slot < ids_.size(); ++slot) {
    if (live_[slot]) slots.push_back(slot);
  }
  auto by_id = [&](uint32_t a, uint32_t b) { return ids_[a] < ids_[b]; };
  if (!std::ranges::is_sorted(slots, by_id)) std::ranges::sort(slots, by_id);
  return slots;
}

std::vector<core::SemSignature> LshIndex::Signatures(uint32_t from) const {
  std::vector<core::SemSignature> sems;
  for (uint32_t s = from; s < ids_.size() && encoder_.dimension() > 0; ++s) {
    sems.push_back(encoder_.Encode(semantics_->taxonomy(),
                                   {zetas_.begin() + zeta_offsets_[s],
                                    zetas_.begin() + zeta_offsets_[s + 1]}));
  }
  return sems;
}

void LshIndex::Insert(data::RecordId id,
                      std::span<const std::string_view> values) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Insert");
  const size_t seen = seen_concepts_.size();
  const auto from = static_cast<uint32_t>(ids_.size());
  BandScratch scratch;
  Add(id, values, &scratch);
  Commit(seen, from);
}

void LshIndex::BulkLoad(data::RecordId first, const data::Dataset& dataset) {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede BulkLoad");
  const size_t seen = seen_concepts_.size();
  const auto from = static_cast<uint32_t>(ids_.size());
  bands_.reserve((from + dataset.size()) * bases_.size());
  BandScratch scratch;
  for (data::RecordId i = 0; i < dataset.size(); ++i) {
    Add(first + i, dataset.Values(i), &scratch);
  }
  // One encoder check for the whole batch: the union of its concepts is
  // what a per-record Insert loop would have grown the encoder to.
  Commit(seen, from);
}

bool LshIndex::Remove(data::RecordId id) {
  const uint32_t* slot = slot_of_.Find(id);
  if (slot == nullptr) return false;
  if (*slot != kNoSlot) {
    live_[*slot] = false;
    ++dead_;
  }
  slot_of_.Erase(id);
  if (NeedsCompaction()) Compact();
  return true;
}

std::vector<data::RecordId> LshIndex::Query(
    std::span<const std::string_view> values) const {
  SABLOCK_CHECK_MSG(bound_, "Bind must precede Query");
  BandScratch scratch;  // local: Query runs under the shared lock
  if (!Bands(values, &scratch)) return {};
  // The probe is evaluated under the current feature set; concepts no
  // indexed record has had yet contribute no semhash bit (matching how a
  // batch run without the probe would gate the existing records).
  core::SemSignature sem;
  if (encoder_.dimension() > 0) {
    sem = encoder_.Encode(semantics_->taxonomy(),
                          semantics_->Interpret(schema_, values));
  }
  std::vector<data::RecordId> out;
  auto take = [&](uint32_t slot) {
    if (live_[slot]) out.push_back(ids_[slot]);
  };
  std::vector<uint64_t> keys;
  for (size_t t = 0; t < bases_.size(); ++t) {
    const Delta& delta = deltas_[t];
    keys_.Keys(t, scratch.bands[t], &sem, &keys);
    for (uint64_t key : keys) {
      for (uint32_t slot : bases_[t].Find(key)) take(slot);
      const uint32_t* newest = delta.newest.Find(key);
      for (uint32_t e = newest == nullptr ? kNoSlot : *newest; e != kNoSlot;
           e = delta.entries[e].second) {
        take(delta.entries[e].first);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void LshIndex::EmitBlocks(core::BlockSink& sink) const {
  // The batch blocker's table loop over the live slots, in id order.
  const std::vector<uint32_t> slots = LiveSlots();
  std::vector<data::RecordId> ids;
  for (uint32_t slot : slots) ids.push_back(ids_[slot]);
  core::EmitLshTables(keys_, bands_, Signatures(0), slots, ids, sink);
}

}  // namespace sablock::index
