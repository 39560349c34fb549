#include "obs/metrics.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace sablock::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  SABLOCK_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "histogram bounds must be sorted ascending");
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

inline void Histogram::AddToSum(double value) {
  // atomic<double> has no fetch_add pre-C++20 on all toolchains; CAS loop.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AddToSum(value);
}

void Histogram::Add(const std::vector<uint64_t>& counts, double sum) {
  SABLOCK_CHECK_MSG(counts.size() == bounds_.size() + 1,
                    "histogram bulk add needs one count per bucket");
  uint64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
    total += counts[i];
  }
  count_.fetch_add(total, std::memory_order_relaxed);
  AddToSum(sum);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<double> Histogram::LatencyBuckets() {
  // 1us .. ~16.8s in powers of 4: 12 buckets + overflow cover every
  // instrumented path from a cache hit to a full suite-sized build.
  std::vector<double> bounds;
  double edge = 1e-6;
  for (int i = 0; i < 12; ++i) {
    bounds.push_back(edge);
    edge *= 4.0;
  }
  return bounds;
}

const SampleSnapshot* MetricsSnapshot::Find(
    const std::string& name, const std::string& label_value) const {
  for (const FamilySnapshot& family : families) {
    if (family.name != name) continue;
    for (const SampleSnapshot& sample : family.samples) {
      if (sample.label_value == label_value) return &sample;
    }
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Family* MetricsRegistry::FindOrCreateFamily(
    const std::string& name, const std::string& help,
    const std::string& label_key, MetricType type) {
  for (const auto& family : families_) {
    if (family->name != name) continue;
    SABLOCK_CHECK_MSG(family->type == type,
                      "metric family re-resolved with a different type");
    SABLOCK_CHECK_MSG(family->label_key == label_key,
                      "metric family re-resolved with a different label key");
    return family.get();
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->label_key = label_key;
  family->type = type;
  families_.push_back(std::move(family));
  return families_.back().get();
}

MetricsRegistry::Instrument* MetricsRegistry::FindOrCreateInstrument(
    Family& family, const std::string& label_value) {
  for (const auto& instrument : family.instruments) {
    if (instrument->label_value == label_value) return instrument.get();
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->label_value = label_value;
  switch (family.type) {
    case MetricType::kCounter:
      instrument->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      instrument->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      instrument->histogram = std::make_unique<Histogram>(family.bounds);
      break;
  }
  family.instruments.push_back(std::move(instrument));
  return family.instruments.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const std::string& label_key,
                                     const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family =
      FindOrCreateFamily(name, help, label_key, MetricType::kCounter);
  return FindOrCreateInstrument(*family, label_value)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const std::string& label_key,
                                 const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family =
      FindOrCreateFamily(name, help, label_key, MetricType::kGauge);
  return FindOrCreateInstrument(*family, label_value)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds,
                                         const std::string& label_key,
                                         const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family =
      FindOrCreateFamily(name, help, label_key, MetricType::kHistogram);
  if (family->instruments.empty()) family->bounds = std::move(bounds);
  return FindOrCreateInstrument(*family, label_value)->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.families.reserve(families_.size());
  for (const auto& family : families_) {
    FamilySnapshot fs;
    fs.name = family->name;
    fs.help = family->help;
    fs.label_key = family->label_key;
    fs.type = family->type;
    for (const auto& instrument : family->instruments) {
      SampleSnapshot sample;
      sample.label_value = instrument->label_value;
      switch (family->type) {
        case MetricType::kCounter:
          sample.counter = instrument->counter->value();
          break;
        case MetricType::kGauge:
          sample.gauge = instrument->gauge->value();
          break;
        case MetricType::kHistogram:
          sample.bounds = instrument->histogram->bounds();
          sample.buckets = instrument->histogram->bucket_counts();
          sample.count = instrument->histogram->count();
          sample.sum = instrument->histogram->sum();
          break;
      }
      fs.samples.push_back(std::move(sample));
    }
    std::sort(fs.samples.begin(), fs.samples.end(),
              [](const SampleSnapshot& a, const SampleSnapshot& b) {
                return a.label_value < b.label_value;
              });
    snapshot.families.push_back(std::move(fs));
  }
  std::sort(snapshot.families.begin(), snapshot.families.end(),
            [](const FamilySnapshot& a, const FamilySnapshot& b) {
              return a.name < b.name;
            });
  return snapshot;
}

}  // namespace sablock::obs
