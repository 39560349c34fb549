#include "core/lsh_blocker.h"

#include <algorithm>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/hashing.h"
#include "common/random.h"
#include "features/feature_store.h"

namespace sablock::core {

std::vector<size_t> SemanticTableChoices(const SemanticParams& params,
                                         uint32_t dim, int table) {
  // Draw this table's w-way semantic hash function: w distinct semhash
  // functions chosen uniformly at random (Section 5.2).
  const size_t w = static_cast<size_t>(
      std::min(params.w, static_cast<int>(dim)));  // clamp to |G|
  Rng rng(Mix64(params.seed) ^ Mix64(0x7ab1e + table));
  return rng.SampleIndices(dim, w);
}

LshTableKeys::LshTableKeys(const SemanticParams& params, uint32_t dim, int l)
    : params_(params), dim_(dim), chosen_(static_cast<size_t>(l)) {
  for (int t = 0; t < l && dim_ > 0; ++t) {
    chosen_[static_cast<size_t>(t)] = SemanticTableChoices(params_, dim_, t);
  }
}

void LshTableKeys::Keys(size_t t, uint64_t band, const SemSignature* sem,
                        std::vector<uint64_t>* keys) const {
  keys->clear();
  auto bit = [&](size_t f) { return sem->Get(static_cast<uint32_t>(f)); };
  if (dim_ == 0 || params_.mode == SemanticMode::kAnd) {
    // The band alone; AND keeps it only if every drawn bit is set.
    if (std::ranges::all_of(chosen_[t], bit)) keys->push_back(band);
    return;
  }
  for (size_t f : chosen_[t]) {
    if (bit(f)) keys->push_back(HashCombine(band, 0xfeed0000 + f));
  }
}

void LshBuckets::EmitTable(BlockSink& sink) {
  bucket_of_.clear();
  bucket_of_.reserve(entries_.size());
  sizes_.clear();
  for (Entry& entry : entries_) {
    auto [bucket, fresh] = bucket_of_.TryEmplace(
        entry.key, static_cast<uint32_t>(sizes_.size()));
    if (fresh) sizes_.push_back(0);
    ++sizes_[*bucket];
    entry.key = *bucket;
  }
  // Counting scatter of the kept buckets' ids; entries are in id order,
  // so every bucket's ids come out ascending.
  kept_.clear();
  ends_.assign(sizes_.size(), 0);
  uint32_t total = 0;
  for (uint32_t bucket = 0; bucket < sizes_.size(); ++bucket) {
    if (sizes_[bucket] < 2) continue;
    kept_.push_back(bucket);
    ends_[bucket] = total;
    total += sizes_[bucket];
  }
  ids_.resize(total);
  for (const Entry& entry : entries_) {
    const uint32_t bucket = static_cast<uint32_t>(entry.key);
    if (sizes_[bucket] >= 2) ids_[ends_[bucket]++] = entry.id;
  }
  entries_.clear();

  auto members = [&](uint32_t bucket) {
    return std::span<const data::RecordId>(ids_).subspan(
        ends_[bucket] - sizes_[bucket], sizes_[bucket]);
  };
  std::sort(kept_.begin(), kept_.end(), [&](uint32_t a, uint32_t b) {
    return std::ranges::lexicographical_compare(members(a), members(b));
  });
  for (uint32_t bucket : kept_) {
    if (sink.Done()) return;
    sink.Consume(members(bucket));
  }
}

void EmitLshTables(const LshTableKeys& keys, std::span<const uint64_t> bands,
                   std::span<const SemSignature> sems,
                   std::span<const uint32_t> rows,
                   std::span<const data::RecordId> ids, BlockSink& sink) {
  LshBuckets buckets;
  std::vector<uint64_t> table_keys;
  for (size_t t = 0; t < keys.tables(); ++t) {
    if (sink.Done()) return;
    for (size_t i = 0; i < ids.size(); ++i) {
      keys.Keys(t, bands[rows[i] * keys.tables() + t],
                sems.empty() ? nullptr : &sems[rows[i]], &table_keys);
      for (uint64_t key : table_keys) buckets.Add(key, ids[i]);
    }
    buckets.EmitTable(sink);
  }
}

features::FeatureView::Handle<features::SignatureColumn> MinhashSignatures(
    const data::Dataset& dataset, const LshParams& params) {
  SABLOCK_CHECK(params.k > 0 && params.l > 0);
  return dataset.features().SignaturesFor(params.attributes, params.q,
                                          params.k * params.l, params.seed);
}

LshBlocker::LshBlocker(LshParams params) : lsh_params_(std::move(params)) {}

LshBlocker::LshBlocker(LshParams lsh_params, SemanticParams sem_params,
                       std::shared_ptr<const SemanticFunction> semantics)
    : lsh_params_(std::move(lsh_params)),
      sem_params_(sem_params),
      semantics_(std::move(semantics)) {
  SABLOCK_CHECK(semantics_ != nullptr);
  SABLOCK_CHECK(sem_params_.w >= 1);
}

std::string LshBlocker::name() const {
  const std::string kl = "(k=" + std::to_string(lsh_params_.k) +
                         ",l=" + std::to_string(lsh_params_.l);
  if (semantics_ == nullptr) return "LSH" + kl + ")";
  return "SA-LSH" + kl + ",w=" + std::to_string(sem_params_.w) +
         (sem_params_.mode == SemanticMode::kAnd ? ",AND)" : ",OR)");
}

void LshBlocker::Run(const data::Dataset& dataset, BlockSink& sink) const {
  const auto bands = dataset.features().BandsFor(
      lsh_params_.attributes, lsh_params_.q, lsh_params_.k, lsh_params_.l,
      lsh_params_.seed);
  // The records that enter the tables, in id order.
  std::vector<data::RecordId> ids;
  ids.reserve(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    if (!bands.Row(id).empty()) ids.push_back(id);
  }

  uint32_t dim = 0;
  std::vector<SemSignature> sem_sigs;
  if (semantics_ != nullptr) {
    const Taxonomy& taxonomy = semantics_->taxonomy();
    std::vector<std::vector<ConceptId>> zetas =
        semantics_->InterpretAll(dataset);
    SemhashEncoder encoder = SemhashEncoder::Build(taxonomy, zetas);
    sem_sigs = encoder.EncodeAll(taxonomy, zetas);
    dim = encoder.dimension();
  }
  // The view's rows of the band column, l keys each.
  const size_t first = dataset.features().offset() * bands.column().tables;
  EmitLshTables(LshTableKeys(sem_params_, dim, lsh_params_.l),
                bands.column().keys.subspan(first), sem_sigs, ids, ids, sink);
}

}  // namespace sablock::core
