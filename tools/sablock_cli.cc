// sablock_cli — run any registered blocking technique on a CSV file (or a
// generated dataset) and report blocking-quality metrics and/or the
// candidate pairs. Techniques are built from registry spec strings; use
// --list to see every registered technique and its parameters.
//
// Examples:
//   sablock_cli --list
//   sablock_cli --generate=cora --records=1879
//               --technique "sa-lsh:k=4,l=63,q=4,attrs=authors+title"
//   sablock_cli --input=voters.csv --entity-column=voter_id
//               --technique "lsh:k=9,l=15,q=2,attrs=first_name+last_name"
//               --pairs-out=pairs.csv
//   sablock_cli --generate=voter --records=30000 --technique=tblo
//               --attrs=first_name,last_name
//   sablock_cli --input=voters.csv --entity-column=voter_id
//               --save-snapshot=voters.sab
//   sablock_cli --load-snapshot=voters.sab
//               --technique "lsh:k=9,l=15,q=2,attrs=first_name+last_name"
// (each invocation is a single command line; shown wrapped for width)

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/blocker_spec.h"
#include "api/pipeline_spec.h"
#include "api/registry.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/block_sink.h"
#include "core/budget.h"
#include "engine/sharded_executor.h"
#include "data/cora_generator.h"
#include "data/csv.h"
#include "data/voter_generator.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "flags.h"
#include "index/index_registry.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace {

using sablock::tools::Flags;

void PrintUsage() {
  std::printf(
      "usage: sablock_cli --list | --list-stages | --list-indexes\n"
      "       sablock_cli (--input=FILE [--entity-column=COL] |\n"
      "                    --generate=cora|voter --records=N |\n"
      "                    --load-snapshot=FILE.sab)\n"
      "                   (--technique \"name:key=val,key=val,...\" |\n"
      "                    --pipeline \"blocker | stage:params | ...\")\n"
      "                   [--attrs=a,b[,c...]]  (default for attrs= param)\n"
      "                   [--pairs-out=FILE]    (write candidate pairs)\n"
      "                   [--blocks-out=FILE]   (write blocks)\n"
      "                   [--threads=N]         (parallel engine workers)\n"
      "                   [--shards=M]          (record shards; 0=threads)\n"
      "                   [--budget \"pairs=N,seconds=S\"]  (stop once the\n"
      "                                          emitted comparisons or\n"
      "                                          wall clock hit the cap)\n"
      "                   [--repeat=N]          (rerun build N times,\n"
      "                                          report min/mean time)\n"
      "                   [--save-snapshot=FILE.sab]  (write the loaded\n"
      "                                          dataset + feature cache\n"
      "                                          as a mmap-able container;\n"
      "                                          no --technique needed)\n"
      "                   [--snapshot-raw]      (disable section\n"
      "                                          compression)\n"
      "                   [--snapshot-no-features]  (dataset core only)\n"
      "\n"
      "--save-snapshot without a --technique/--pipeline converts and\n"
      "exits; with one, the snapshot is written after the runs (so the\n"
      "feature cache the run warmed is captured). --load-snapshot maps\n"
      "the container back zero-copy (see README \"Snapshots\").\n"
      "\n"
      "With --threads/--shards the sharded execution engine partitions\n"
      "the records and runs the technique per shard concurrently; blocks\n"
      "never span shards, and results depend on the shard count but\n"
      "never on the thread count (shard results merge in shard order).\n"
      "\n"
      "--pipeline composes any blocker with post-processing stages, e.g.\n"
      "  \"token-blocking | purge:max_size=500 | meta:weight=cbs,prune=wep\"\n"
      "(a --technique is a pipeline with no stages). Every run prints a\n"
      "per-step table: the blocks, comparisons and largest block each step\n"
      "emitted, and its seconds, which sum to the build time. The\n"
      "generator's seconds include the streaming stages' per-block work; a\n"
      "barrier stage's are its flush. Under --threads/--shards the\n"
      "generator runs sharded while the stages run once, globally\n"
      "(barrier stages fire at merge).\n"
      "\n"
      "--budget takes the unified core::Budget grammar (pairs=N,\n"
      "seconds=S; \"inf\" = unlimited) and bounds what reaches the\n"
      "output: blocks stop being collected once their comparisons\n"
      "exhaust the budget. recall-target= budgets are pipeline-only —\n"
      "use the progressive stage (--pipeline \"... | progressive:...\").\n"
      "\n"
      "Every technique parameter goes in the spec string; a flag not\n"
      "listed above is an error.\n");
}

void PrintEntry(const sablock::api::BlockerInfo& info) {
  std::string aliases;
  for (const std::string& alias : info.aliases) {
    aliases += aliases.empty() ? " (alias: " : ", ";
    aliases += alias;
  }
  if (!aliases.empty()) aliases += ")";
  std::printf("  %-8s%s\n", info.name.c_str(), aliases.c_str());
  std::printf("    %s\n", info.summary.c_str());
  for (const sablock::api::ParamDoc& param : info.params) {
    std::printf("      %-16s default=%-6s %s\n", param.name.c_str(),
                param.default_value.empty() ? "-"
                                            : param.default_value.c_str(),
                param.help.c_str());
  }
}

void PrintStages() {
  std::printf("registered pipeline stages:\n\n");
  for (const sablock::api::BlockerInfo& info :
       sablock::pipeline::StageRegistry::Global().List()) {
    PrintEntry(info);
  }
  std::printf(
      "\npipeline grammar: \"blocker | stage:key=val,... | stage\", e.g.\n"
      "  \"token-blocking:attrs=authors+title | purge:max_size=500 |\n"
      "   meta:weight=cbs,prune=wep\"\n");
}

void PrintIndexes() {
  std::printf("registered incremental indexes (sablock_serve):\n\n");
  for (const sablock::api::BlockerInfo& info :
       sablock::index::IndexRegistry::Global().List()) {
    PrintEntry(info);
  }
  std::printf(
      "\nindexes share the technique spec grammar; a fully loaded index\n"
      "reproduces its batch technique's blocks (see README \"Serving\").\n");
}

void PrintRegistry() {
  std::printf("registered blocking techniques:\n\n");
  for (const sablock::api::BlockerInfo& info :
       sablock::api::BlockerRegistry::Global().List()) {
    PrintEntry(info);
  }
  std::printf(
      "\nspec grammar: name[:key=val,key=val,...]; list values join\n"
      "elements with '+', e.g. \"lsh:k=4,l=63,attrs=authors+title\"\n\n");
  PrintStages();
}

/// Loads the dataset named by --input / --generate / --load-snapshot.
/// Returns true and fills `out`; on failure prints the error (or the
/// usage text when no source was given) and returns false.
bool LoadDatasetFromFlags(const Flags& flags, sablock::data::Dataset* out) {
  sablock::Status status;
  if (flags.Has("load-snapshot")) {
    sablock::store::SnapshotInfo info;
    sablock::WallTimer timer;
    status = sablock::store::LoadSnapshot(flags.Get("load-snapshot"), {},
                                          out, &info);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return false;
    }
    std::printf("snapshot: %llu bytes, %u section(s), %u feature "
                "section(s)%s, loaded in %.3fs\n",
                static_cast<unsigned long long>(info.file_bytes),
                info.sections, info.feature_sections,
                info.any_compressed ? ", compressed" : "",
                timer.Seconds());
    return true;
  }
  if (flags.Has("input")) {
    status = sablock::data::ReadCsv(flags.Get("input"),
                                    flags.Get("entity-column"), out);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return false;
    }
    return true;
  }
  if (flags.Get("generate") == "cora") {
    sablock::data::CoraGeneratorConfig config;
    config.num_records = static_cast<size_t>(flags.GetInt("records", 1879, 1));
    config.num_entities = std::max<size_t>(config.num_records / 10, 1);
    *out = GenerateCoraLike(config);
    return true;
  }
  if (flags.Get("generate") == "voter") {
    sablock::data::VoterGeneratorConfig config;
    config.num_records =
        static_cast<size_t>(flags.GetInt("records", 30000, 1));
    *out = GenerateVoterLike(config);
    return true;
  }
  PrintUsage();
  return false;
}

/// Writes `dataset` (plus any feature columns its cache already holds,
/// unless --snapshot-no-features) to the --save-snapshot path.
int SaveSnapshotFromFlags(const Flags& flags,
                          const sablock::data::Dataset& dataset) {
  sablock::store::WriteOptions options;
  options.compress = !flags.Has("snapshot-raw");
  options.include_features = !flags.Has("snapshot-no-features");
  sablock::store::WriteInfo info;
  sablock::Status status = sablock::store::WriteSnapshot(
      flags.Get("save-snapshot"), dataset, options, &info);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("wrote snapshot %s: %llu bytes, %u section(s) "
              "(%u feature)\n",
              flags.Get("save-snapshot").c_str(),
              static_cast<unsigned long long>(info.file_bytes),
              info.sections, info.feature_sections);
  return 0;
}

/// Writes `header` and then the rows `write_rows` streams to `path`.
/// Prints an error and returns false when the file cannot be opened or
/// any write fails, the flush at close included.
template <typename WriteRows>
bool WriteCsvOutput(const std::string& path, const char* header,
                    WriteRows write_rows) {
  std::ofstream out(path);
  if (out.is_open()) {
    out << header;
    write_rows(out);
    out.close();
  }
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = sablock::tools::ParseFlags(
      argc, argv,
      {"help", "list", "list-stages", "list-indexes", "input",
       "entity-column", "generate", "records", "load-snapshot",
       "save-snapshot", "snapshot-raw", "snapshot-no-features", "technique",
       "pipeline", "attrs", "pairs-out", "blocks-out", "threads", "shards",
       "budget", "repeat"});
  if (flags.Has("help") || argc == 1) {
    PrintUsage();
    return 0;
  }
  if (flags.Has("list")) {
    PrintRegistry();
    return 0;
  }
  if (flags.Has("list-stages")) {
    PrintStages();
    return 0;
  }
  if (flags.Has("list-indexes")) {
    PrintIndexes();
    return 0;
  }

  // --- snapshot conversion (no technique: load, write .sab, exit) -------
  if (flags.Has("save-snapshot") && !flags.Has("technique") &&
      !flags.Has("pipeline")) {
    sablock::data::Dataset dataset;
    if (!LoadDatasetFromFlags(flags, &dataset)) return 1;
    std::printf("dataset: %zu records, %zu attributes\n", dataset.size(),
                dataset.schema().size());
    return SaveSnapshotFromFlags(flags, dataset);
  }

  // --- technique or pipeline (built from registry spec strings) ---------
  if (flags.Has("pipeline") && flags.Has("technique")) {
    std::fprintf(stderr,
                 "error: pass either --technique or --pipeline, not both\n");
    return 1;
  }
  const bool use_pipeline = flags.Has("pipeline");
  sablock::api::PipelineSpec pipeline_spec;
  sablock::Status status =
      use_pipeline
          ? sablock::api::PipelineSpec::Parse(flags.Get("pipeline"),
                                              &pipeline_spec)
          : sablock::api::BlockerSpec::Parse(flags.Get("technique", "lsh"),
                                             &pipeline_spec.blocker);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  // --attrs layers a default under the generator segment.
  sablock::api::BlockerSpec& blocker_spec = pipeline_spec.blocker;

  std::vector<std::string> attrs =
      sablock::Split(flags.Get("attrs", ""), ',');
  attrs.erase(std::remove(attrs.begin(), attrs.end(), std::string()),
              attrs.end());
  if (!attrs.empty()) {
    blocker_spec.params.SetIfAbsent("attrs", sablock::Join(attrs, "+"));
  }
  // The effective blocking attributes (from --attrs or the spec itself),
  // validated against the schema once the dataset is loaded.
  {
    sablock::api::ParamMap params_peek = blocker_spec.params;
    attrs = params_peek.GetStringList("attrs", {});
  }
  // Only sa-lsh carries its own attribute default (the domain's paper
  // attributes); everything else blocks on nothing without attrs, which
  // is never what the user wants.
  if (attrs.empty() && blocker_spec.name != "sa-lsh" &&
      blocker_spec.name != "salsh") {
    std::fprintf(stderr,
                 "error: no blocking attributes — pass --attrs=a,b or an "
                 "attrs= spec param\n");
    return 1;
  }

  // Every run is a pipeline: a bare --technique is a zero-stage one.
  std::unique_ptr<sablock::pipeline::PipelinedBlocker> pipelined;
  status = sablock::pipeline::Build(std::move(pipeline_spec), &pipelined);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    std::fprintf(stderr,
                 "hint: sablock_cli --list shows all techniques and "
                 "pipeline stages\n");
    return 1;
  }

  // --- dataset ----------------------------------------------------------
  sablock::data::Dataset dataset;
  if (!LoadDatasetFromFlags(flags, &dataset)) return 1;
  std::printf("dataset: %zu records, %zu attributes\n", dataset.size(),
              dataset.schema().size());

  for (const std::string& a : attrs) {
    if (dataset.schema().IndexOf(a) < 0) {
      std::fprintf(stderr, "error: attribute '%s' not in schema\n",
                   a.c_str());
      return 1;
    }
  }

  // --- execution spec (sharded engine + repeat) -------------------------
  sablock::engine::ExecutionSpec exec;
  {
    std::string exec_text;
    auto append = [&exec_text](const std::string& kv) {
      if (!exec_text.empty()) exec_text += ",";
      exec_text += kv;
    };
    if (flags.Has("threads")) append("threads=" + flags.Get("threads"));
    if (flags.Has("shards")) append("shards=" + flags.Get("shards"));
    status = sablock::engine::ExecutionSpec::Parse(exec_text, &exec);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
  }
  // --- budget (unified core::Budget grammar, bounds collected output) ---
  sablock::core::Budget budget;
  const bool use_budget = flags.Has("budget");
  if (use_budget) {
    status = sablock::core::Budget::Parse(flags.Get("budget"), &budget);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
    if (budget.recall_target > 0.0) {
      std::fprintf(stderr,
                   "error: recall-target budgets need pair-level scoring — "
                   "use the progressive pipeline stage, e.g.\n"
                   "  --pipeline \"tblo | progressive:sched=ew-cbs,"
                   "recall-target=0.9\"\n");
      return 1;
    }
  }

  const int repeat = flags.GetInt("repeat", 1, 1);
  // Every run goes through the executor: without engine flags it is one
  // shard on one thread, which is a plain run of the pipeline.
  const sablock::engine::ShardedExecutor executor(exec);

  // --- run (the last repeat's collection serves metrics and outputs) ----
  sablock::core::BlockCollection blocks;
  std::vector<sablock::pipeline::StepCounts> steps;
  double min_seconds = 0.0;
  double total_seconds = 0.0;
  // Each repetition runs on a fresh cold copy, so every one pays the full
  // feature build. The last copy outlives the loop: its feature cache is
  // exactly what the run warmed, so --save-snapshot captures the columns
  // a future load of the same spec will need.
  sablock::data::Dataset cold;
  // The last repetition's meter survives the loop for the budget report.
  std::shared_ptr<sablock::core::BudgetMeter> meter;
  for (int run = 0; run < repeat; ++run) {
    cold = dataset.ColdCopy();
    blocks = sablock::core::BlockCollection();
    // The budget gates what reaches the collection at the chain's output
    // (barrier stages still see the whole stream); its Done() reaches the
    // generator through the streaming stages.
    std::optional<sablock::core::BudgetedSink> budgeted;
    sablock::core::BlockSink* sink = &blocks;
    if (use_budget) {
      meter = std::make_shared<sablock::core::BudgetMeter>(budget);
      sink = &budgeted.emplace(blocks, meter);
    }
    // The generator runs sharded and the stages run once, globally
    // (barrier stages fire at merge).
    sablock::WallTimer timer;
    steps = executor.ExecutePipeline(pipelined->blocker(),
                                     pipelined->stages(), cold, *sink);
    const double seconds = timer.Seconds();
    min_seconds = run == 0 ? seconds : std::min(min_seconds, seconds);
    total_seconds += seconds;
  }
  const sablock::eval::Metrics metrics =
      sablock::eval::Evaluate(dataset, blocks);
  std::printf("%s: %s\n",
              pipelined->stages().empty() ? "technique" : "pipeline",
              pipelined->name().c_str());
  if (flags.Has("threads") || flags.Has("shards")) {
    std::printf("engine: %s\n", exec.ToString().c_str());
  }
  sablock::eval::TablePrinter table(
      {"step", "blocks", "comparisons", "max", "seconds"});
  for (const sablock::pipeline::StepCounts& step : steps) {
    char seconds_buf[32];
    std::snprintf(seconds_buf, sizeof(seconds_buf), "%.3f", step.seconds);
    table.AddRow({step.name, std::to_string(step.blocks),
                  std::to_string(step.comparisons),
                  std::to_string(step.max_block_size), seconds_buf});
  }
  table.Print();
  std::printf("blocks: %llu (max size %llu), candidate pairs: %llu, "
              "build time: %.3fs\n",
              static_cast<unsigned long long>(metrics.num_blocks),
              static_cast<unsigned long long>(metrics.max_block_size),
              static_cast<unsigned long long>(metrics.distinct_pairs),
              min_seconds);
  if (repeat > 1) {
    std::printf("build time over %d runs: min=%.3fs mean=%.3fs\n", repeat,
                min_seconds, total_seconds / repeat);
  }
  if (meter != nullptr) {
    const std::string reason = meter->ExhaustedReason();
    std::printf("budget: %s — comparisons spent: %llu (%s)\n",
                budget.unlimited() ? "unlimited" : budget.ToString().c_str(),
                static_cast<unsigned long long>(meter->Spent()),
                reason.empty() ? "not exhausted"
                               : ("exhausted: " + reason).c_str());
  }
  if (metrics.ground_truth_pairs > 0) {
    std::printf("quality: %s\n", sablock::eval::Summary(metrics).c_str());
  } else {
    std::printf("quality: (no ground truth labels — metrics skipped)\n");
  }

  // --- optional outputs ---------------------------------------------------
  if (flags.Has("pairs-out")) {
    const std::string path = flags.Get("pairs-out");
    if (!WriteCsvOutput(path, "record_a,record_b\n", [&](std::ofstream& out) {
          blocks.DistinctPairs().ForEach([&out](uint32_t a, uint32_t b) {
            out << a << ',' << b << '\n';
          });
        })) {
      return 1;
    }
    std::printf("wrote candidate pairs to %s\n", path.c_str());
  }
  if (flags.Has("blocks-out")) {
    const std::string path = flags.Get("blocks-out");
    if (!WriteCsvOutput(path, "block_id,record_id\n", [&](std::ofstream& out) {
          for (size_t bi = 0; bi < blocks.blocks().size(); ++bi) {
            for (sablock::data::RecordId id : blocks.blocks()[bi]) {
              out << bi << ',' << id << '\n';
            }
          }
        })) {
      return 1;
    }
    std::printf("wrote blocks to %s\n", path.c_str());
  }
  if (flags.Has("save-snapshot")) {
    // The run-warmed cold copy: same data, with the features it built.
    return SaveSnapshotFromFlags(flags, cold);
  }
  return 0;
}
