#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace sablock::obs {

namespace {

using report::Json;

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "counter";
}

/// Shortest round-trippable rendering of a bucket edge for label values.
std::string FormatEdge(double edge) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", edge);
  for (int precision = 1; precision < 17; ++precision) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", precision, edge);
    if (std::strtod(probe, nullptr) == edge) return probe;
  }
  return buf;
}

}  // namespace

Json SnapshotToJson(const MetricsSnapshot& snapshot) {
  Json root = Json::Object();
  Json families = Json::Array();
  for (const FamilySnapshot& family : snapshot.families) {
    Json f = Json::Object();
    f.Set("name", family.name);
    f.Set("type", TypeName(family.type));
    f.Set("help", family.help);
    if (!family.label_key.empty()) f.Set("label_key", family.label_key);
    Json samples = Json::Array();
    for (const SampleSnapshot& sample : family.samples) {
      Json s = Json::Object();
      if (!family.label_key.empty()) s.Set("label", sample.label_value);
      switch (family.type) {
        case MetricType::kCounter:
          s.Set("value", sample.counter);
          break;
        case MetricType::kGauge:
          s.Set("value", static_cast<int64_t>(sample.gauge));
          break;
        case MetricType::kHistogram: {
          s.Set("count", sample.count);
          s.Set("sum", sample.sum);
          Json bounds = Json::Array();
          for (double edge : sample.bounds) bounds.Append(edge);
          s.Set("bounds", std::move(bounds));
          Json buckets = Json::Array();
          for (uint64_t c : sample.buckets) buckets.Append(c);
          s.Set("buckets", std::move(buckets));
          break;
        }
      }
      samples.Append(std::move(s));
    }
    f.Set("samples", std::move(samples));
    families.Append(std::move(f));
  }
  root.Set("families", std::move(families));
  return root;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  char line[256];
  auto label = [](const FamilySnapshot& family, const SampleSnapshot& sample,
                  const char* extra_key = nullptr,
                  const std::string& extra_value = "") {
    std::string s;
    if (!family.label_key.empty() || extra_key != nullptr) {
      s += '{';
      if (!family.label_key.empty()) {
        s += family.label_key + "=\"" + sample.label_value + "\"";
      }
      if (extra_key != nullptr) {
        if (!family.label_key.empty()) s += ',';
        s += std::string(extra_key) + "=\"" + extra_value + "\"";
      }
      s += '}';
    }
    return s;
  };
  for (const FamilySnapshot& family : snapshot.families) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " " + TypeName(family.type) + "\n";
    for (const SampleSnapshot& sample : family.samples) {
      switch (family.type) {
        case MetricType::kCounter:
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", sample.counter);
          out += family.name + label(family, sample) + line;
          break;
        case MetricType::kGauge:
          std::snprintf(line, sizeof(line), " %" PRId64 "\n", sample.gauge);
          out += family.name + label(family, sample) + line;
          break;
        case MetricType::kHistogram: {
          // Prometheus buckets are cumulative with an explicit +Inf edge.
          uint64_t cumulative = 0;
          for (size_t i = 0; i < sample.buckets.size(); ++i) {
            cumulative += sample.buckets[i];
            const std::string edge = i < sample.bounds.size()
                                         ? FormatEdge(sample.bounds[i])
                                         : std::string("+Inf");
            std::snprintf(line, sizeof(line), " %" PRIu64 "\n", cumulative);
            out += family.name + "_bucket" +
                   label(family, sample, "le", edge) + line;
          }
          std::snprintf(line, sizeof(line), " %.17g\n", sample.sum);
          out += family.name + "_sum" + label(family, sample) + line;
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", sample.count);
          out += family.name + "_count" + label(family, sample) + line;
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace sablock::obs
