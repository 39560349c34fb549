#include "features/feature_store.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "core/minhash.h"
#include "obs/metrics.h"
#include "text/qgram.h"

namespace sablock::features {

/// Cache telemetry for one column kind: a getter call either finds the
/// column published or joins its build (hit), or starts the build (miss,
/// with its wall time in the build histogram). Pointers resolve once per
/// kind per process; the getters then update lock-free. Hit rate is the
/// `featurestore` family bench_compare.py gates for drift.
struct FeatureStore::ColumnMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Histogram* build_seconds;

  explicit ColumnMetrics(const char* column) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    hits = registry.GetCounter(
        "featurestore_hits", "column requests served from the cache",
        "column", column);
    misses = registry.GetCounter(
        "featurestore_misses", "column requests that paid a build", "column",
        column);
    build_seconds = registry.GetHistogram(
        "featurestore_build_seconds", "column build wall time",
        obs::Histogram::LatencyBuckets(), "column", column);
  }
};

namespace {

/// Records per chunk of a cooperative build: a 200k-record column is ~400
/// chunks, so the threads building it finish within a chunk of each
/// other, and each claim covers far more work than the atomic increment
/// that makes it.
constexpr size_t kChunkRecords = 512;

/// The token build appends serially (a row's new ids depend on the rows
/// before it), so it is one chunk spanning the whole column.
constexpr size_t kWholeColumn = SIZE_MAX;

// Column keys: attribute names joined with a separator that cannot occur
// in attribute names coming from CSV headers or generators, plus the
// numeric parameters for derived columns.
constexpr char kAttrSep = '\x1f';
constexpr char kParamSep = '\x1e';

std::string TextKey(const std::vector<std::string>& attributes) {
  std::string key;
  for (const std::string& attr : attributes) {
    key += attr;
    key += kAttrSep;
  }
  return key;
}

std::string ShingleKey(const std::vector<std::string>& attributes, int q) {
  std::string key = TextKey(attributes);
  key += kParamSep;
  key += std::to_string(q);
  return key;
}

std::string SignatureKey(const std::vector<std::string>& attributes, int q,
                         int num_hashes, uint64_t seed) {
  std::string key = ShingleKey(attributes, q);
  key += kParamSep;
  key += std::to_string(num_hashes);
  key += kParamSep;
  key += std::to_string(seed);
  return key;
}

}  // namespace

FeatureStore::FeatureStore(const data::Dataset& dataset)
    : snapshot_(dataset.ColdCopy()), dataset_version_(dataset.version()) {}

template <typename Column>
FeatureStore::Entry<Column>& FeatureStore::FindOrCreate(
    EntryMap<Column>& map, const std::string& key) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  auto [it, inserted] = map.try_emplace(key, nullptr);
  if (inserted) it->second = std::make_unique<Entry<Column>>();
  return *it->second;
}

template <typename Column, typename Parent, typename Prepare,
          typename Fill, typename Finish>
const Column& FeatureStore::Obtain(Entry<Column>& entry, Caller caller,
                                   ColumnMetrics& metrics,
                                   size_t chunk_records, Parent&& parent,
                                   Prepare&& prepare, Fill&& fill,
                                   Finish&& finish) const {
  if (entry.phase.load(std::memory_order_acquire) == Phase::kReady) {
    if (caller == Caller::kGetter) metrics.hits->Add(1);
    return entry.column;
  }
  WallTimer timer;
  bool started = false;
  {
    std::unique_lock<std::mutex> lock(entry.mutex);
    // Helpers join only builds a getter has started, so exactly one
    // getter starts each build and counts its miss.
    entry.changed.wait(lock, [&] {
      return caller == Caller::kGetter ||
             entry.phase.load(std::memory_order_relaxed) != Phase::kEmpty;
    });
    const Phase phase = entry.phase.load(std::memory_order_relaxed);
    if (phase == Phase::kReady) {
      if (caller == Caller::kGetter) metrics.hits->Add(1);
      return entry.column;
    }
    started = phase == Phase::kEmpty;
    if (started) {
      entry.phase.store(Phase::kClaimed, std::memory_order_relaxed);
      entry.changed.notify_all();
    }
  }

  parent(started ? Caller::kGetter : Caller::kHelper);
  const size_t n = size();
  if (started) {
    prepare(entry.column);
    std::lock_guard<std::mutex> lock(entry.mutex);
    entry.num_chunks = n == 0 ? 1 : 1 + (n - 1) / chunk_records;
    entry.chunks_left.store(entry.num_chunks, std::memory_order_relaxed);
    entry.phase.store(Phase::kBuilding, std::memory_order_relaxed);
    entry.changed.notify_all();
  } else {
    std::unique_lock<std::mutex> lock(entry.mutex);
    entry.changed.wait(lock, [&] {
      return entry.phase.load(std::memory_order_relaxed) >= Phase::kBuilding;
    });
  }

  for (size_t chunk = entry.next_chunk.fetch_add(1, std::memory_order_relaxed);
       chunk < entry.num_chunks;
       chunk = entry.next_chunk.fetch_add(1, std::memory_order_relaxed)) {
    const size_t begin = chunk * chunk_records;
    fill(entry.column, begin, begin + std::min(chunk_records, n - begin));
    // acq_rel: the thread finishing the last chunk sees every chunk.
    if (entry.chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish(entry.column);
      std::lock_guard<std::mutex> lock(entry.mutex);
      entry.phase.store(Phase::kReady, std::memory_order_release);
      entry.changed.notify_all();
    }
  }
  {
    std::unique_lock<std::mutex> lock(entry.mutex);
    entry.changed.wait(lock, [&] {
      return entry.phase.load(std::memory_order_relaxed) == Phase::kReady;
    });
  }
  if (started) {
    metrics.misses->Add(1);
    metrics.build_seconds->Observe(timer.Seconds());
  } else if (caller == Caller::kGetter) {
    metrics.hits->Add(1);
  }
  return entry.column;
}

const TextColumn& FeatureStore::Texts(
    const std::vector<std::string>& attributes) const {
  return Texts(attributes, Caller::kGetter);
}

const TextColumn& FeatureStore::Texts(
    const std::vector<std::string>& attributes, Caller caller) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("text");
  return Obtain(
      FindOrCreate(texts_, TextKey(attributes)), caller, metrics,
      kChunkRecords, [](Caller) {},
      [&](TextColumn& out) { out.texts.resize(size()); },
      [&](TextColumn& out, size_t begin, size_t end) {
        for (size_t id = begin; id < end; ++id) {
          out.texts[id] = snapshot_.ConcatenatedValues(
              static_cast<data::RecordId>(id), attributes);
        }
      },
      [&](TextColumn&) {
        text_builds_.fetch_add(1, std::memory_order_relaxed);
        RecordInCatalog(&Catalog::texts, attributes, 0, 0, 0);
      });
}

const TokenColumn& FeatureStore::Tokens(
    const std::vector<std::string>& attributes) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("token");
  const TextColumn* texts = nullptr;
  return Obtain(
      FindOrCreate(tokens_columns_, TextKey(attributes)), Caller::kGetter,
      metrics, kWholeColumn,
      [&](Caller caller) { texts = &Texts(attributes, caller); },
      [](TokenColumn&) {},
      [&](TokenColumn& out, size_t begin, size_t end) {
        for (size_t id = begin; id < end; ++id) {
          const std::string_view text = texts->texts[id];
          out.Append({&text, 1});
        }
      },
      [&](TokenColumn&) {
        token_builds_.fetch_add(1, std::memory_order_relaxed);
        RecordInCatalog(&Catalog::tokens, attributes, 0, 0, 0);
      });
}

const ShingleColumn& FeatureStore::Shingles(
    const std::vector<std::string>& attributes, int q) const {
  return Shingles(attributes, q, Caller::kGetter);
}

const ShingleColumn& FeatureStore::Shingles(
    const std::vector<std::string>& attributes, int q, Caller caller) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("shingle");
  const TextColumn* texts = nullptr;
  return Obtain(
      FindOrCreate(shingles_, ShingleKey(attributes, q)), caller, metrics,
      kChunkRecords,
      [&](Caller role) { texts = &Texts(attributes, role); },
      [&](ShingleColumn& out) { out.sets.resize(size()); },
      [&](ShingleColumn& out, size_t begin, size_t end) {
        for (size_t id = begin; id < end; ++id) {
          out.sets[id] = text::QGramHashes(texts->texts[id], q);
        }
      },
      [&](ShingleColumn&) {
        shingle_builds_.fetch_add(1, std::memory_order_relaxed);
        RecordInCatalog(&Catalog::shingles, attributes, q, 0, 0);
      });
}

const SignatureColumn& FeatureStore::Signatures(
    const std::vector<std::string>& attributes, int q, int num_hashes,
    uint64_t seed) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("signature");
  const ShingleColumn* shingles = nullptr;
  const size_t width = static_cast<size_t>(num_hashes);
  return Obtain(
      FindOrCreate(signatures_, SignatureKey(attributes, q, num_hashes, seed)),
      Caller::kGetter, metrics, kChunkRecords,
      [&](Caller caller) { shingles = &Shingles(attributes, q, caller); },
      [&](SignatureColumn& out) {
        out.num_hashes = static_cast<uint32_t>(num_hashes);
        out.data = std::make_unique_for_overwrite<uint64_t[]>(size() * width);
        out.rows = {out.data.get(), size() * width};
      },
      [&](SignatureColumn& out, size_t begin, size_t end) {
        const core::MinHasher hasher(num_hashes, seed);
        for (size_t id = begin; id < end; ++id) {
          hasher.SignatureInto(shingles->sets[id],
                               {out.data.get() + id * width, width});
        }
      },
      [&](SignatureColumn&) {
        signature_builds_.fetch_add(1, std::memory_order_relaxed);
        RecordInCatalog(&Catalog::signatures, attributes, q, num_hashes,
                        seed);
      });
}

void FeatureStore::RecordInCatalog(std::vector<ColumnParams> Catalog::* list,
                                   const std::vector<std::string>& attributes,
                                   int q, int num_hashes,
                                   uint64_t seed) const {
  ColumnParams params;
  params.attributes = attributes;
  params.q = q;
  params.num_hashes = num_hashes;
  params.seed = seed;
  std::lock_guard<std::mutex> lock(map_mutex_);
  (catalog_.*list).push_back(std::move(params));
}

FeatureStore::Catalog FeatureStore::catalog() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return catalog_;
}

template <typename Column>
bool FeatureStore::Publish(Entry<Column>& entry, Column column) {
  std::lock_guard<std::mutex> lock(entry.mutex);
  if (entry.phase.load(std::memory_order_relaxed) != Phase::kEmpty) {
    return false;
  }
  entry.column = std::move(column);
  entry.phase.store(Phase::kReady, std::memory_order_release);
  entry.changed.notify_all();
  return true;
}

void FeatureStore::AdoptTexts(const std::vector<std::string>& attributes,
                              TextColumn column) {
  SABLOCK_CHECK_MSG(column.texts.size() == size(),
                    "adopted text column has wrong record count");
  SABLOCK_CHECK_MSG(
      Publish(FindOrCreate(texts_, TextKey(attributes)), std::move(column)),
      "text column already built; adopt first");
  text_builds_.fetch_add(1, std::memory_order_relaxed);
  RecordInCatalog(&Catalog::texts, attributes, 0, 0, 0);
}

void FeatureStore::AdoptTokens(const std::vector<std::string>& attributes,
                               TokenColumn column) {
  SABLOCK_CHECK_MSG(column.size() == size(),
                    "adopted token column has wrong record count");
  SABLOCK_CHECK_MSG(Publish(FindOrCreate(tokens_columns_, TextKey(attributes)),
                            std::move(column)),
                    "token column already built; adopt first");
  token_builds_.fetch_add(1, std::memory_order_relaxed);
  RecordInCatalog(&Catalog::tokens, attributes, 0, 0, 0);
}

void FeatureStore::AdoptShingles(const std::vector<std::string>& attributes,
                                 int q, ShingleColumn column) {
  SABLOCK_CHECK_MSG(column.sets.size() == size(),
                    "adopted shingle column has wrong record count");
  SABLOCK_CHECK_MSG(Publish(FindOrCreate(shingles_, ShingleKey(attributes, q)),
                            std::move(column)),
                    "shingle column already built; adopt first");
  shingle_builds_.fetch_add(1, std::memory_order_relaxed);
  RecordInCatalog(&Catalog::shingles, attributes, q, 0, 0);
}

void FeatureStore::AdoptSignatures(const std::vector<std::string>& attributes,
                                   int q, int num_hashes, uint64_t seed,
                                   SignatureColumn column) {
  SABLOCK_CHECK_MSG(
      column.num_hashes == static_cast<uint32_t>(num_hashes) &&
          column.rows.size() == size() * static_cast<size_t>(num_hashes),
      "adopted signature column has wrong shape");
  SABLOCK_CHECK_MSG(
      Publish(FindOrCreate(signatures_,
                           SignatureKey(attributes, q, num_hashes, seed)),
              std::move(column)),
      "signature column already built; adopt first");
  signature_builds_.fetch_add(1, std::memory_order_relaxed);
  RecordInCatalog(&Catalog::signatures, attributes, q, num_hashes, seed);
}

FeatureStore::Stats FeatureStore::stats() const {
  Stats s;
  s.text_builds = text_builds_.load(std::memory_order_relaxed);
  s.token_builds = token_builds_.load(std::memory_order_relaxed);
  s.shingle_builds = shingle_builds_.load(std::memory_order_relaxed);
  s.signature_builds = signature_builds_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sablock::features
