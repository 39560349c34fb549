#include "core/lsh_blocker.h"

#include <algorithm>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/hashing.h"
#include "common/random.h"
#include "features/feature_store.h"

namespace sablock::core {

uint64_t LshBandKey(std::span<const uint64_t> sig, int table, int k) {
  uint64_t key = Mix64(0x5ab10c0 + static_cast<uint64_t>(table));
  for (int r = 0; r < k; ++r) {
    key = HashCombine(key, sig[static_cast<size_t>(table) * k + r]);
  }
  return key;
}

bool IsEmptyMinhashSignature(std::span<const uint64_t> sig) {
  return sig.empty() || sig[0] == MinHasher::kEmptySlot;
}

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

LshBands ComputeLshBands(const data::Dataset& dataset,
                         const LshParams& params) {
  const auto sigs = MinhashSignatures(dataset, params);
  LshBands bands;
  bands.ids.reserve(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    if (!IsEmptyMinhashSignature(sigs.Row(id))) bands.ids.push_back(id);
  }
  const size_t n = bands.ids.size();
  bands.keys.resize(n * static_cast<size_t>(params.l));
  for (size_t i = 0; i < n; ++i) {
    const std::span<const uint64_t> sig = sigs.Row(bands.ids[i]);
    for (int t = 0; t < params.l; ++t) {
      bands.keys[static_cast<size_t>(t) * n + i] =
          LshBandKey(sig, t, params.k);
    }
  }
  return bands;
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
  const LshBands bands = ComputeLshBands(dataset, lsh_params_);

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
    const std::span<const uint64_t> bands_t = bands.Table(t);
    if (dim == 0) {
      // No semantic feature to tell records apart: the band alone.
      for (size_t i = 0; i < bands_t.size(); ++i) {
        buckets.Add(bands_t[i], bands.ids[i]);
      }
    } else {
      const std::vector<size_t> chosen =
          SemanticTableChoices(sem_params_, dim, t);
      for (size_t i = 0; i < bands_t.size(); ++i) {
        const data::RecordId id = bands.ids[i];
        keys.clear();
        AppendSemanticBucketKeys(bands_t[i], sem_sigs[id], sem_params_.mode,
                                 chosen, &keys);
        for (uint64_t key : keys) buckets.Add(key, id);
      }
    }
    buckets.EmitTable(sink);
  }
}

}  // namespace sablock::core
