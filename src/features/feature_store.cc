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

// A band column chunk owns whole words of the column's empty marks.
static_assert(kChunkRecords % 64 == 0);

/// The token build appends serially (a row's new ids depend on the rows
/// before it), so it is one chunk spanning the whole column.
constexpr size_t kWholeColumn = SIZE_MAX;

// A column's key within its kind: the attribute names, each closed by a
// separator that cannot occur in names coming from CSV headers or
// generators, then the kind's numeric parameters.
template <typename... Params>
std::string Key(const std::vector<std::string>& attributes,
                Params... params) {
  std::string key;
  for (const std::string& attr : attributes) {
    key += attr;
    key += '\x1f';
  }
  ((key += '\x1e', key += std::to_string(params)), ...);
  return key;
}

// Rows columns are sized by per-record upper bounds and compacted.
template <typename Column>
constexpr bool kIsRows = false;
template <typename T>
constexpr bool kIsRows<Rows<T>> = true;

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
          typename Fill, typename Record>
const Column& FeatureStore::Obtain(Entry<Column>& entry, Caller caller,
                                   ColumnMetrics& metrics,
                                   size_t chunk_records, Parent&& parent,
                                   Prepare&& prepare, Fill&& fill,
                                   Record&& record) const {
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
    const size_t num_chunks = n == 0 ? 1 : 1 + (n - 1) / chunk_records;
    if constexpr (kIsRows<Column>) {
      entry.firsts.resize(num_chunks);
      size_t slots = 0;
      for (size_t id = 0; id < n; ++id) {
        if (id % chunk_records == 0) entry.firsts[id / chunk_records] = slots;
        slots += prepare(id);
      }
      entry.column = Column(n, slots);
    } else {
      prepare(entry.column);
    }
    std::lock_guard<std::mutex> lock(entry.mutex);
    entry.num_chunks = num_chunks;
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
    const size_t end = begin + std::min(chunk_records, n - begin);
    if constexpr (kIsRows<Column>) {
      fill(entry.column, begin, end, entry.firsts[chunk]);
    } else {
      fill(entry.column, begin, end);
    }
    // acq_rel: the thread finishing the last chunk sees every chunk.
    if (entry.chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if constexpr (kIsRows<Column>) {
        entry.column.Compact(entry.firsts, chunk_records);
        entry.firsts = {};
      }
      record();
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
  const std::vector<int> positions = snapshot_.schema().Positions(attributes);
  auto values = [&](size_t id) {
    return snapshot_.Values(static_cast<data::RecordId>(id));
  };
  return Obtain(
      FindOrCreate(texts_, Key(attributes)), caller, metrics,
      kChunkRecords, [](Caller) {},
      [&](size_t id) { return data::BlockingTextBound(values(id), positions); },
      [&](TextColumn& out, size_t begin, size_t end, size_t slot) {
        for (size_t id = begin; id < end; ++id) {
          slot = out.WriteRow(id, slot, [&](std::span<char> chars) {
            return data::WriteBlockingText(values(id), positions, chars);
          });
        }
      },
      [&] { RecordInCatalog(&Catalog::texts, {attributes}); });
}

const TokenColumn& FeatureStore::Tokens(
    const std::vector<std::string>& attributes) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("token");
  const TextColumn* texts = nullptr;
  return Obtain(
      FindOrCreate(tokens_columns_, Key(attributes)), Caller::kGetter,
      metrics, kWholeColumn,
      [&](Caller caller) { texts = &Texts(attributes, caller); },
      [](TokenColumn&) {},
      [&](TokenColumn& out, size_t begin, size_t end) {
        for (size_t id = begin; id < end; ++id) {
          const std::string_view text = texts->Row(id);
          out.Append({&text, 1});
        }
      },
      [&] { RecordInCatalog(&Catalog::tokens, {attributes}); });
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
      FindOrCreate(shingles_, Key(attributes, q)), caller, metrics,
      kChunkRecords,
      [&](Caller role) { texts = &Texts(attributes, role); },
      [&](size_t id) { return texts->Row(id).size(); },  // <= 1 per char
      [&](ShingleColumn& out, size_t begin, size_t end, size_t slot) {
        for (size_t id = begin; id < end; ++id) {
          slot = out.WriteRow(id, slot, [&](std::span<uint64_t> hashes) {
            return text::QGramHashesInto(texts->Row(id), q, hashes);
          });
        }
      },
      [&] { RecordInCatalog(&Catalog::shingles, {attributes, q}); });
}

const SignatureColumn& FeatureStore::Signatures(
    const std::vector<std::string>& attributes, int q, int num_hashes,
    uint64_t seed) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("signature");
  const ShingleColumn* shingles = nullptr;
  const size_t width = static_cast<size_t>(num_hashes);
  return Obtain(
      FindOrCreate(signatures_, Key(attributes, q, num_hashes, seed)),
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
          hasher.SignatureInto(shingles->Row(id),
                               {out.data.get() + id * width, width});
        }
      },
      [&] {
        RecordInCatalog(&Catalog::signatures,
                        {attributes, q, num_hashes, seed});
      });
}

const BandColumn& FeatureStore::Bands(
    const std::vector<std::string>& attributes, int q, int k, int l,
    uint64_t seed) const {
  static ColumnMetrics& metrics = *new ColumnMetrics("band");
  SABLOCK_CHECK(q >= 1 && k >= 1 && l >= 1);
  const TextColumn* texts = nullptr;
  const size_t width = static_cast<size_t>(l);
  return Obtain(
      FindOrCreate(bands_, Key(attributes, q, k, l, seed)), Caller::kGetter,
      metrics, kChunkRecords,
      [&](Caller caller) { texts = &Texts(attributes, caller); },
      [&](BandColumn& out) {
        const size_t keys = size() * width;
        out.tables = static_cast<uint32_t>(l);
        out.data = std::make_unique_for_overwrite<uint64_t[]>(
            keys + BandColumn::MarkWords(size()));
        out.keys = {out.data.get(), keys};
        out.empty = {out.data.get() + keys, BandColumn::MarkWords(size())};
      },
      [&](BandColumn& out, size_t begin, size_t end) {
        uint64_t* marks = out.data.get() + out.keys.size();
        std::fill(marks + begin / 64, marks + BandColumn::MarkWords(end),
                  uint64_t{0});
        const core::LshBander bander(q, k, l, seed);
        core::LshBander::Scratch scratch;
        for (size_t id = begin; id < end; ++id) {
          const std::span<uint64_t> row(out.data.get() + id * width, width);
          if (!bander.Keys(texts->Row(id), &scratch, row)) {
            std::fill(row.begin(), row.end(), uint64_t{0});
            marks[id / 64] |= uint64_t{1} << (id % 64);
          }
        }
      },
      [&] {
        RecordInCatalog(&Catalog::bands, {.attributes = attributes,
                                          .q = q,
                                          .seed = seed,
                                          .k = k,
                                          .l = l});
      });
}

void FeatureStore::RecordInCatalog(std::vector<ColumnParams> Catalog::* list,
                                   ColumnParams params) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  (catalog_.*list).push_back(std::move(params));
}

FeatureStore::Catalog FeatureStore::catalog() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return catalog_;
}

template <typename Column>
bool FeatureStore::Adopt(EntryMap<Column>& map, const std::string& key,
                         std::vector<ColumnParams> Catalog::* list,
                         ColumnParams params, Column column) {
  SABLOCK_CHECK_MSG(column.size() == size(),
                    "adopted column has wrong record count");
  Entry<Column>& entry = FindOrCreate(map, key);
  {
    std::lock_guard<std::mutex> lock(entry.mutex);
    if (entry.phase.load(std::memory_order_relaxed) != Phase::kEmpty) {
      return false;
    }
    entry.column = std::move(column);
    entry.phase.store(Phase::kReady, std::memory_order_release);
    entry.changed.notify_all();
  }
  RecordInCatalog(list, std::move(params));
  return true;
}

bool FeatureStore::AdoptTexts(const std::vector<std::string>& attributes,
                              TextColumn column) {
  return Adopt(texts_, Key(attributes), &Catalog::texts, {attributes},
               std::move(column));
}

bool FeatureStore::AdoptTokens(const std::vector<std::string>& attributes,
                               TokenColumn column) {
  return Adopt(tokens_columns_, Key(attributes), &Catalog::tokens,
               {attributes}, std::move(column));
}

bool FeatureStore::AdoptShingles(const std::vector<std::string>& attributes,
                                 int q, ShingleColumn column) {
  return Adopt(shingles_, Key(attributes, q), &Catalog::shingles,
               {attributes, q}, std::move(column));
}

bool FeatureStore::AdoptSignatures(const std::vector<std::string>& attributes,
                                   int q, int num_hashes, uint64_t seed,
                                   SignatureColumn column) {
  SABLOCK_CHECK_MSG(
      column.num_hashes == static_cast<uint32_t>(num_hashes) &&
          column.rows.size() == size() * static_cast<size_t>(num_hashes),
      "adopted signature column has wrong shape");
  return Adopt(signatures_, Key(attributes, q, num_hashes, seed),
               &Catalog::signatures, {attributes, q, num_hashes, seed},
               std::move(column));
}

bool FeatureStore::AdoptBands(const std::vector<std::string>& attributes,
                              int q, int k, int l, uint64_t seed,
                              BandColumn column) {
  SABLOCK_CHECK_MSG(
      column.tables == static_cast<uint32_t>(l) &&
          column.keys.size() == size() * static_cast<size_t>(l) &&
          column.empty.size() == BandColumn::MarkWords(size()),
      "adopted band column has wrong shape");
  return Adopt(bands_, Key(attributes, q, k, l, seed), &Catalog::bands,
               {.attributes = attributes, .q = q, .seed = seed, .k = k,
                .l = l},
               std::move(column));
}

}  // namespace sablock::features
