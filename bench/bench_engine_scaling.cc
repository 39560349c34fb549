// Engine scalability: SA-LSH (the paper's Voter operating point, k=9,
// l=15, w=12/OR) on a Voter-like dataset, run through the sharded
// execution engine at 1, 2, 4 and 8 threads over a pinned shard count.
//
// Because the shard count (not the thread count) defines the computation,
// every row produces the identical merged BlockCollection — the scenario
// verifies PC/PQ/RR equality exactly and FAILS (nonzero exit) otherwise.
// Two row groups: `threads=N` runs over a pre-warmed FeatureStore, so its
// time isolates the engine's parallel bucketing and merge; `cold
// threads=N` runs each repetition on a fresh ColdCopy, so the feature
// build is timed too — the shards racing a cold column build it
// cooperatively, chunk by chunk. Each group reports speedup vs. its own
// 1-thread row; expect up to ~min(threads, cores, shards)x on idle
// multi-core hardware (a single-core machine cannot show >1x and the
// scenario prints the hardware parallelism so that is visible).
//
// Flags: --records=N (default 50000), --shards=M (default 8), plus the
// runner's --repeat (min wall time over R runs per row).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "engine/sharded_executor.h"
#include "engine/thread_pool.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "scenarios.h"

namespace sablock::bench {
namespace {

int RunEngineScaling(report::BenchContext& ctx) {
  size_t records = ctx.SizeOr("records", 50000, 4000);
  int shards = static_cast<int>(ctx.SizeOr("shards", 8, 4));
  // Timing rows want best-of-2 even when the runner default is 1.
  int repeat = ctx.repeat > 1 ? ctx.repeat : 2;

  std::printf(
      "Engine scaling: SA-LSH on %zu Voter-like records, %d shards,\n"
      "best of %d runs per row (hardware threads available: %d)\n\n",
      records, shards, repeat,
      sablock::engine::ThreadPool::DefaultThreads());

  sablock::data::Dataset dataset = MakePaperVoter(records);
  const std::string spec_string =
      "sa-lsh:domain=voter,k=9,l=15,q=2,w=12,mode=or";
  std::unique_ptr<sablock::core::BlockingTechnique> technique =
      FromSpec(spec_string);

  // Warm the shared feature cache once, untimed, for the warm rows: they
  // isolate the engine's parallel bucketing + merge. The cold rows time
  // the cooperative feature build on top of it.
  {
    sablock::core::BlockCollection warmup;
    technique->Run(dataset, warmup);
  }

  eval::TablePrinter table({"threads", "shards", "PC", "PQ", "RR",
                            "blocks", "time(s)", "speedup"});
  sablock::eval::Metrics base_metrics;
  bool metrics_identical = true;

  for (bool cold : {false, true}) {
    const std::string prefix = cold ? "cold " : "";
    double base_seconds = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      sablock::engine::ExecutionSpec spec;
      spec.threads = threads;
      spec.shards = shards;
      sablock::engine::ShardedExecutor executor(spec);

      std::vector<double> seconds;
      sablock::core::BlockCollection blocks;
      for (int run = 0; run < repeat; ++run) {
        // A plain copy shares the warm store; a ColdCopy has none.
        const sablock::data::Dataset input =
            cold ? dataset.ColdCopy() : dataset;
        sablock::WallTimer timer;
        blocks = executor.ExecuteCollect(*technique, input);
        seconds.push_back(timer.Seconds());
      }
      report::RepeatStats stats =
          report::SummarizeSeconds(std::move(seconds));
      double best = stats.min_s;
      sablock::eval::Metrics m = sablock::eval::Evaluate(dataset, blocks);

      if (threads == 1) base_seconds = best;
      if (!cold && threads == 1) {
        base_metrics = m;
      } else if (m.distinct_pairs != base_metrics.distinct_pairs ||
                 m.true_pairs != base_metrics.true_pairs ||
                 m.total_comparisons != base_metrics.total_comparisons ||
                 m.num_blocks != base_metrics.num_blocks) {
        metrics_identical = false;
      }
      table.AddRow({prefix + std::to_string(threads), std::to_string(shards),
                    FormatDouble(m.pc, 4), FormatDouble(m.pq, 4),
                    FormatDouble(m.rr, 4),
                    std::to_string(static_cast<unsigned long long>(
                        m.num_blocks)),
                    FormatDouble(best, 3),
                    FormatDouble(base_seconds / best, 2) + "x"});

      report::RunResult run;
      run.name = prefix + "threads=" + std::to_string(threads);
      run.spec = spec_string;
      run.dataset = "voter-like";
      run.dataset_records = dataset.size();
      run.AddParam("threads", std::to_string(threads));
      run.AddParam("shards", std::to_string(shards));
      run.time = stats;
      run.has_metrics = true;
      run.metrics = m;
      ctx.Record(std::move(run));
    }
  }
  table.Print();

  std::printf("\ndeterminism check (identical PC/PQ/RR and block counts "
              "across thread counts, warm and cold): %s\n",
              metrics_identical ? "PASS" : "FAIL");
  return metrics_identical ? 0 : 1;
}

}  // namespace

void RegisterEngineScaling(report::BenchRegistry& registry) {
  registry.Register(
      {"engine_scaling",
       "sharded-engine threading speedup + determinism check",
       {"records", "shards"}},
      RunEngineScaling);
}

}  // namespace sablock::bench
