// The sablock_bench runner: selects scenarios from the BenchRegistry,
// runs them with quick/full sizes and repeat counts, keeps every
// scenario's human-readable tables on stdout, and optionally writes the
// machine-readable SuiteResult JSON that tools/bench_compare.py (and the
// CI bench-smoke job) consume.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "report/json.h"
#include "report/run_result.h"
#include "scenarios.h"

namespace sablock::bench {
namespace {

constexpr const char* kUsage =
    "usage: sablock_bench [options]\n"
    "  --list           list registered scenarios and exit\n"
    "  --filter=SUB[,SUB...]\n"
    "                   run only scenarios whose name contains any SUB\n"
    "                   (case-insensitive substring)\n"
    "  --quick          smoke-test sizes (small datasets, CI-friendly)\n"
    "  --repeat=N       timing repetitions per measured run (default 1;\n"
    "                   reported as min/mean/p50)\n"
    "  --json=FILE      write the SuiteResult JSON to FILE\n"
    "  --prom=FILE      write the process's final metrics snapshot to\n"
    "                   FILE in Prometheus text exposition format\n"
    "  --NAME=NUMBER    scenario size override (e.g. --cora=500\n"
    "                   --voter=2000 --records=50000 --max=100000\n"
    "                   --shards=8 --threads=4 --runs=5)\n";

struct Options {
  bool list = false;
  bool help = false;
  bool quick = false;
  int repeat = 1;
  std::string json_path;
  std::string prom_path;
  std::vector<std::string> filters;  // lowercased substrings
  std::map<std::string, size_t> flags;
};

/// Parses argv; returns false (after printing a diagnostic) on a usage
/// error.
bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list") {
      options->list = true;
      continue;
    }
    if (arg == "--quick") {
      options->quick = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      continue;
    }
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "sablock_bench: unexpected argument '%s'\n%s",
                   arg.c_str(), kUsage);
      return false;
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 2 || eq + 1 >= arg.size()) {
      std::fprintf(stderr, "sablock_bench: malformed flag '%s'\n%s",
                   arg.c_str(), kUsage);
      return false;
    }
    std::string name = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    if (name == "filter") {
      for (const std::string& part : Split(value, ',')) {
        if (!part.empty()) options->filters.push_back(ToLower(part));
      }
      continue;
    }
    if (name == "json") {
      options->json_path = value;
      continue;
    }
    if (name == "prom") {
      options->prom_path = value;
      continue;
    }
    errno = 0;
    char* end = nullptr;
    long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || parsed <= 0 || errno == ERANGE ||
        parsed > 1000000000L) {
      std::fprintf(stderr,
                   "sablock_bench: flag '--%s' needs a positive number "
                   "(at most 1e9), got '%s'\n%s",
                   name.c_str(), value.c_str(), kUsage);
      return false;
    }
    if (name == "repeat") {
      options->repeat = static_cast<int>(parsed);
      continue;
    }
    // Size overrides are validated against the union of the flags the
    // registered scenarios declare (ScenarioInfo::size_flags), so a
    // typoed override is rejected instead of silently ignored.
    options->flags[name] = static_cast<size_t>(parsed);
  }
  return true;
}

/// The union of every registered scenario's declared size flags.
std::set<std::string> KnownSizeFlags(const report::BenchRegistry& registry) {
  std::set<std::string> known;
  for (const report::ScenarioInfo& info : registry.List()) {
    known.insert(info.size_flags.begin(), info.size_flags.end());
  }
  return known;
}

bool Selected(const std::string& name,
              const std::vector<std::string>& filters) {
  if (filters.empty()) return true;
  std::string lower = ToLower(name);
  for (const std::string& filter : filters) {
    if (lower.find(filter) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int BenchMain(int argc, char** argv, report::SuiteResult* suite_out) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  if (options.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  EnsureScenariosRegistered();
  report::BenchRegistry& registry = report::BenchRegistry::Global();

  const std::set<std::string> known_flags = KnownSizeFlags(registry);
  for (const auto& [name, value] : options.flags) {
    if (!known_flags.count(name)) {
      std::fprintf(stderr,
                   "sablock_bench: unknown flag '--%s' (no scenario "
                   "declares it)\n%s",
                   name.c_str(), kUsage);
      return 2;
    }
  }

  if (options.list) {
    for (const report::ScenarioInfo& info : registry.List()) {
      std::string flags;
      for (const std::string& flag : info.size_flags) {
        flags += (flags.empty() ? "--" : " --") + flag;
      }
      std::printf("%-26s %s%s%s%s\n", info.name.c_str(),
                  info.summary.c_str(), flags.empty() ? "" : " [",
                  flags.c_str(), flags.empty() ? "" : "]");
    }
    return 0;
  }

  std::vector<report::ScenarioInfo> selected;
  for (const report::ScenarioInfo& info : registry.List()) {
    if (Selected(info.name, options.filters)) selected.push_back(info);
  }
  if (selected.empty()) {
    std::fprintf(stderr,
                 "sablock_bench: no scenario matches the filter; "
                 "--list shows the registered names\n");
    return 2;
  }

  report::SuiteResult suite;
  suite.quick = options.quick;
  suite.repeat = options.repeat;

  int exit_code = 0;
  for (const report::ScenarioInfo& info : selected) {
    std::printf("==== %s ====\n\n", info.name.c_str());
    report::BenchContext ctx;
    ctx.quick = options.quick;
    ctx.repeat = options.repeat;
    ctx.flags = options.flags;
    ctx.scenario = info.name;

    WallTimer timer;
    int rc = (*registry.Find(info.name))(ctx);
    double seconds = timer.Seconds();

    suite.scenarios.push_back({info.name, rc, seconds});
    for (report::RunResult& run : ctx.runs()) {
      suite.runs.push_back(std::move(run));
    }
    if (rc != 0) {
      std::printf("\n==== %s FAILED (exit %d) ====\n\n", info.name.c_str(),
                  rc);
      exit_code = 1;
    } else {
      std::printf("\n==== %s done in %.2fs ====\n\n", info.name.c_str(),
                  seconds);
    }
  }

  // One snapshot after all scenarios: the suite's metrics object and the
  // Prometheus dump are views of the same final registry state.
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  suite.metrics_snapshot = snapshot;
  suite.has_metrics_snapshot = true;
  if (suite_out != nullptr) *suite_out = suite;

  if (!options.json_path.empty()) {
    Status status =
        report::WriteJsonFile(report::ToJson(suite), options.json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "sablock_bench: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("wrote %zu runs from %zu scenarios to %s\n",
                suite.runs.size(), suite.scenarios.size(),
                options.json_path.c_str());
  }
  if (!options.prom_path.empty()) {
    const std::string text = obs::ToPrometheusText(snapshot);
    std::FILE* f = std::fopen(options.prom_path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) {
      std::fprintf(stderr, "sablock_bench: cannot write %s\n",
                   options.prom_path.c_str());
      return 1;
    }
    std::printf("wrote %zu metric families to %s\n",
                snapshot.families.size(), options.prom_path.c_str());
  }
  return exit_code;
}

}  // namespace sablock::bench
