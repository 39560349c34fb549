#ifndef SABLOCK_OBS_METRICS_H_
#define SABLOCK_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sablock::obs {

/// The telemetry core: a process-wide registry of named counter, gauge
/// and histogram families, dependency-free and cheap enough to leave on
/// in the hot paths (every update is one relaxed atomic RMW; the only
/// lock is taken when an instrument is first created or a snapshot is
/// cut).
///
/// Naming conventions (see README "Observability"):
///   - snake_case family names, unit-suffixed where one applies
///     (`*_seconds`, `*_bytes`);
///   - at most one label per family, e.g. `blocks_emitted{stage=...}` —
///     enough for every current consumer and it keeps the registry and
///     the Prometheus exporter trivial;
///   - instruments are never unregistered: callers resolve a pointer
///     once (function-local static or member) and update it lock-free
///     forever after.

/// Monotonic event count. Relaxed atomics: totals are exact, ordering
/// against other metrics is not promised (snapshots are cut live).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed level (queue depth, in-flight requests).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket cumulative-free histogram: `bounds` are the inclusive
/// upper edges of the first N buckets, a +Inf overflow bucket is
/// implicit. Observe() is one relaxed fetch_add on the matching bucket
/// plus count/sum updates — no locks, safe for any number of concurrent
/// writers (the 8-thread hammer in obs_test runs under TSan).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Index of the bucket Observe(value) lands in: the first whose
  /// (inclusive) upper edge holds the value, bounds().size() for +Inf.
  size_t BucketIndex(double value) const {
    return static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
  }

  /// Bulk form of Observe, for callers that bucket locally and publish
  /// once: adds counts[i] to bucket i, their total to count() and `sum`
  /// to sum(). `counts` has bounds().size() + 1 entries.
  void Add(const std::vector<uint64_t>& counts, double sum);

  /// Upper bounds (without the implicit +Inf).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// the last entry being the +Inf overflow bucket.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  /// Default latency buckets: exponential 1us .. ~16s upper edges, the
  /// range every instrumented seam (task latency, request latency,
  /// feature builds) falls into.
  static std::vector<double> LatencyBuckets();

 private:
  void AddToSum(double value);

  std::vector<double> bounds_;  // sorted ascending, immutable
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one instrument of a family.
struct SampleSnapshot {
  std::string label_value;  ///< "" for unlabeled families
  uint64_t counter = 0;
  int64_t gauge = 0;
  // Histogram payload (empty for counter/gauge samples).
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  ///< per-bucket, last entry = +Inf
  uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of one family and all its labeled instruments.
struct FamilySnapshot {
  std::string name;
  std::string help;
  std::string label_key;  ///< "" for unlabeled families
  MetricType type = MetricType::kCounter;
  std::vector<SampleSnapshot> samples;  ///< sorted by label_value
};

/// Everything the registry knows, families sorted by name — the payload
/// of both export sinks (suite JSON, Prometheus text; see export.h).
struct MetricsSnapshot {
  std::vector<FamilySnapshot> families;

  /// The sample of `name{label_key=label_value}`; nullptr when absent.
  const SampleSnapshot* Find(const std::string& name,
                             const std::string& label_value = "") const;
};

/// Registry of metric families. Get* resolves (creating on first use)
/// the instrument for one (family, label value); the returned pointer is
/// stable for the registry's lifetime, so callers cache it and update
/// lock-free. Re-resolving with a conflicting type or label key aborts —
/// a family's shape is fixed by its first resolution.
///
/// Instrumented library code uses Global(); tests construct their own
/// registries so expectations never depend on what other tests touched.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed: instrument pointers
  /// held in function-local statics must stay valid during shutdown).
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& label_key = "",
                      const std::string& label_value = "");
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& label_key = "",
                  const std::string& label_value = "");
  /// `bounds` applies when the family is created; later resolutions of
  /// the same family reuse the original bounds.
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds,
                          const std::string& label_key = "",
                          const std::string& label_value = "");

  MetricsSnapshot Snapshot() const;

 private:
  struct Instrument {
    std::string label_value;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    std::string label_key;
    MetricType type = MetricType::kCounter;
    std::vector<double> bounds;  // histogram families only
    std::vector<std::unique_ptr<Instrument>> instruments;
  };

  Family* FindOrCreateFamily(const std::string& name,
                             const std::string& help,
                             const std::string& label_key, MetricType type);
  Instrument* FindOrCreateInstrument(Family& family,
                                     const std::string& label_value);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace sablock::obs

#endif  // SABLOCK_OBS_METRICS_H_
