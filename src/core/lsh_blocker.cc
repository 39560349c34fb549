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

void AppendSemanticBucketKeys(uint64_t band, const SemSignature& sem,
                              SemanticMode mode,
                              const std::vector<size_t>& chosen,
                              std::vector<uint64_t>* keys) {
  if (mode == SemanticMode::kAnd) {
    for (size_t f : chosen) {
      if (!sem.Get(static_cast<uint32_t>(f))) return;
    }
    keys->push_back(band);
  } else {
    for (size_t f : chosen) {
      if (sem.Get(static_cast<uint32_t>(f))) {
        keys->push_back(HashCombine(band, 0xfeed0000 + f));
      }
    }
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
    std::span<const data::RecordId> block = members(bucket);
    sink.Consume(Block(block.begin(), block.end()));
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
  LshBuckets buckets;
  std::vector<uint64_t> keys;
  for (int t = 0; t < lsh_params_.l; ++t) {
    if (sink.Done()) return;
    const size_t table = static_cast<size_t>(t);
    if (dim == 0) {
      // No semantic feature to tell records apart: the band alone.
      for (data::RecordId id : ids) buckets.Add(bands.Row(id)[table], id);
    } else {
      const std::vector<size_t> chosen =
          SemanticTableChoices(sem_params_, dim, t);
      for (data::RecordId id : ids) {
        keys.clear();
        AppendSemanticBucketKeys(bands.Row(id)[table], sem_sigs[id],
                                 sem_params_.mode, chosen, &keys);
        for (uint64_t key : keys) buckets.Add(key, id);
      }
    }
    buckets.EmitTable(sink);
  }
}

}  // namespace sablock::core
