// sablock_e2e: the workload process of the end-to-end benchmark.
//
//   sablock_e2e generate --kind=voter|cora|serve --seed=N --out=DIR [--quick]
//   sablock_e2e run --workload=NAME --inputs=DIR --seed=N --seconds=S
//                   --trace=0|1 [--trace-out=FILE] [--quick]
//
// `generate` writes seeded inputs; `run` only reads them (plus --seed,
// which seeds the serving op sequence) and prints one JSON object as its
// last stdout line. e2ebench/e2e.py runs both; see e2ebench/README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "arch/arch.h"
#include "common/hashing.h"
#include "e2e.h"

#ifndef SABLOCK_E2E_BUILD_TYPE
#define SABLOCK_E2E_BUILD_TYPE "unknown"
#endif

namespace sablock::e2e {

Sizes SizesFor(bool quick) {
  Sizes sizes;
  if (quick) {
    sizes.voter_records = 4000;
    sizes.cora_records = 2000;
    sizes.serve_records = 2000;
    sizes.serve_heldout = 400;
    sizes.ops_per_client = 500;
    sizes.progressive_pairs = 5323;
    sizes.min_reps = 2;
  }
  return sizes;
}

int Tracer::Begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::move(name), Now(), 0.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  SABLOCK_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_s = Now();
}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_s - spans_[i].start_s;
    }
  }
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

report::Json Tracer::ChromeTrace() const {
  report::Json events = report::Json::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    report::Json args = report::Json::Object();
    args.Set("id", static_cast<int64_t>(i));
    args.Set("parent", static_cast<int64_t>(span.parent));
    report::Json event = report::Json::Object();
    event.Set("name", span.name);
    event.Set("cat", span.name.substr(0, span.name.find('.')));
    event.Set("ph", "X");
    event.Set("ts", span.start_s * 1e6);
    event.Set("dur", (span.end_s - span.start_s) * 1e6);
    event.Set("pid", 1);
    event.Set("tid", 1);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  return events;
}

void Result::Metric(const std::string& name, double value, const char* unit) {
  report::Json metric = report::Json::Object();
  metric.Set("value", value);
  metric.Set("unit", unit);
  metrics.Set(name, std::move(metric));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
#ifdef __GLIBC__
  // Hand freed heap back first, so the next peak does not depend on how
  // fragmented earlier reps left the heap.
  ::malloc_trim(0);
#endif
  // Linux: writing 5 to clear_refs resets the VmHWM high-water mark.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double MedianSpan(const Tracer& tracer, std::string_view name) {
  return Median(tracer.Durations(name));
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

PairSummary SummarizePairs(const data::Dataset& dataset, const PairSet& pairs,
                           uint64_t true_match_pairs) {
  PairSummary summary;
  uint64_t true_pairs = 0;
  pairs.ForEach([&](uint32_t a, uint32_t b) {
    summary.digest += Mix64((static_cast<uint64_t>(a) << 32) | b);
    if (dataset.IsMatch(a, b)) ++true_pairs;
  });
  summary.pairs = pairs.size();
  summary.pc = true_match_pairs == 0
                   ? 0.0
                   : static_cast<double>(true_pairs) /
                         static_cast<double>(true_match_pairs);
  return summary;
}

uint64_t SequenceDigest(const core::BlockCollection& blocks) {
  uint64_t digest = 0;
  for (const core::Block& block : blocks.blocks()) {
    for (data::RecordId id : block) digest = HashCombine(digest, id);
    digest = HashCombine(digest, 0xb10c);
  }
  return digest;
}

namespace {

/// Returns the value of `--name=value` or `--name value` at argv[*i],
/// advancing *i past a separate value; nullptr when argv[*i] is not it.
const char* FlagValue(int argc, char** argv, int* i, const char* name) {
  const size_t len = std::strlen(name);
  const char* arg = argv[*i];
  if (std::strncmp(arg, name, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sablock_e2e generate --kind=voter|cora|serve "
               "--seed=N --out=DIR [--quick]\n"
               "       sablock_e2e run --workload=NAME --inputs=DIR "
               "--seed=N --seconds=S --trace=0|1 [--trace-out=FILE] "
               "[--quick]\n");
  return 2;
}

report::Json HostBlock(const Result& result) {
  report::Json host = report::Json::Object();
  host.Set("nproc",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  host.Set("isa", arch::IsaName(arch::ActiveIsa()));
#if defined(__clang__)
  host.Set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.Set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.Set("compiler", "unknown");
#endif
  host.Set("build_type", SABLOCK_E2E_BUILD_TYPE);
  host.Set("threads", result.threads);
  host.Set("connections", result.connections);
  return host;
}

int Generate(int argc, char** argv) {
  std::string kind;
  std::string out;
  uint64_t seed = 42;
  bool quick = false;
  for (int i = 2; i < argc; ++i) {
    if (const char* v = FlagValue(argc, argv, &i, "--kind")) {
      kind = v;
    } else if (const char* v = FlagValue(argc, argv, &i, "--out")) {
      out = v;
    } else if (const char* v = FlagValue(argc, argv, &i, "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      return Usage();
    }
  }
  if (kind.empty() || out.empty()) return Usage();
  Status s = GenerateInputs(kind, seed, SizesFor(quick), out);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  Options options;
  for (int i = 2; i < argc; ++i) {
    if (const char* v = FlagValue(argc, argv, &i, "--workload")) {
      options.workload = v;
    } else if (const char* v = FlagValue(argc, argv, &i, "--inputs")) {
      options.inputs = v;
    } else if (const char* v = FlagValue(argc, argv, &i, "--seed")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = FlagValue(argc, argv, &i, "--seconds")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = FlagValue(argc, argv, &i, "--trace-out")) {
      options.trace_out = v;
    } else if (const char* v = FlagValue(argc, argv, &i, "--trace")) {
      options.trace = std::strcmp(v, "1") == 0;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.inputs.empty()) return Usage();
  options.sizes = SizesFor(options.quick);

  using RunFn = void (*)(const Options&, Tracer*, Result*);
  const std::map<std::string, RunFn> workloads = {
      {"batch-salsh-voter", RunSalshVoter},
      {"batch-meta-cora", RunMetaCora},
      {"progressive-cora-1pct", RunProgressiveCora},
      {"serve-mix-cora", RunServeMix},
  };
  auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  Tracer tracer;
  Result result;
  it->second(options, options.trace ? &tracer : nullptr, &result);

  report::Json out = report::Json::Object();
  out.Set("workload", options.workload);
  out.Set("seed", options.seed);
  out.Set("trace", options.trace);
  out.Set("quick", options.quick);
  out.Set("attempted", result.attempted);
  out.Set("failed", result.failed);
  out.Set("metrics", std::move(result.metrics));
  out.Set("checks", std::move(result.checks));
  out.Set("host", HostBlock(result));
  if (options.trace) {
    report::Json layers = report::Json::Object();
    for (const auto& [layer, seconds] : tracer.LayerSelfSeconds()) {
      layers.Set(layer, seconds);
    }
    out.Set("layer_self_s", std::move(layers));
    if (!options.trace_out.empty()) {
      Status s = report::WriteJsonFile(tracer.ChromeTrace(),
                                       options.trace_out, 0);
      if (!s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.message().c_str());
        return 1;
      }
    }
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace sablock::e2e

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "generate") == 0) {
    return sablock::e2e::Generate(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
    return sablock::e2e::Run(argc, argv);
  }
  return sablock::e2e::Usage();
}
