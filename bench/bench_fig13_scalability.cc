// Experiment E10 — Fig. 13: PC / PQ / RR and wall time of LSH and SA-LSH
// over Voter-like datasets of increasing size (10k .. 292,892 records,
// the paper's series), plus the time to build the semantic function (SF):
// taxonomy construction + record interpretation + semhash signatures.
//
// Beyond the paper's single-core figure, SA-LSH is also run through the
// sharded execution engine (SA-LSH/par rows, --threads=N workers over
// --shards=M record shards) — the "threads" column tells the series
// apart. Shards are pinned independently of the thread count, so the
// engine rows are comparable across machines and thread counts; note
// that sharded blocking answers a slightly different question than the
// 1-shard rows (blocks never span shards), so compare engine rows with
// engine rows. The engine_scaling scenario isolates the speedup
// measurement.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/semhash.h"
#include "engine/execution_spec.h"
#include "engine/thread_pool.h"
#include "eval/harness.h"
#include "scenarios.h"

namespace sablock::bench {
namespace {

int RunFig13Scalability(report::BenchContext& ctx) {
  using sablock::core::LshBlocker;
  using sablock::core::SemanticAwareLshBlocker;
  using sablock::core::SemanticMode;
  using sablock::core::SemanticParams;

  size_t max_records = ctx.SizeOr("max", 292892, 5000);
  // A pool holds at most ThreadPool::kMaxThreads workers.
  int threads = static_cast<int>(std::min<size_t>(
      ctx.SizeOr("threads",
                 static_cast<size_t>(std::min(
                     4, sablock::engine::ThreadPool::DefaultThreads())),
                 2),
      sablock::engine::ThreadPool::kMaxThreads));
  int shards = static_cast<int>(ctx.SizeOr("shards", 8, 4));

  std::printf("Fig. 13 reproduction (E10): scalability on Voter-like data\n"
              "(k=9, l=15; engine rows: threads=%d over %d shards)\n\n",
              threads, shards);

  // Generate the full set once; prefixes give the size series.
  sablock::data::Dataset full = MakePaperVoter(max_records);

  std::vector<size_t> sizes;
  for (size_t n : {10000u, 50000u, 100000u, 150000u, 200000u, 240000u,
                   292892u}) {
    if (n <= max_records) sizes.push_back(n);
  }
  if (sizes.empty() || sizes.back() != max_records) {
    sizes.push_back(max_records);
  }

  eval::TablePrinter table(
      {"records", "method", "threads", "PC", "PQ", "RR", "time(s)"});
  sablock::core::LshParams p = VoterLshParams();
  auto add_row = [&](size_t n, const std::string& method, int t,
                     const eval::TechniqueResult& r,
                     const report::RepeatStats& stats,
                     const sablock::data::Dataset& d) {
    table.AddRow({std::to_string(n), method, std::to_string(t),
                  FormatDouble(r.metrics.pc, 4),
                  FormatDouble(r.metrics.pq, 4),
                  FormatDouble(r.metrics.rr, 4),
                  FormatDouble(r.seconds, 2)});
    report::RunResult run = TechniqueRun(
        method + " t=" + std::to_string(t), "", "voter-like", d, r, stats);
    run.AddParam("threads", std::to_string(t));
    ctx.Record(std::move(run));
  };

  for (size_t n : sizes) {
    sablock::data::Dataset d = full.Prefix(n);
    sablock::core::Domain domain = sablock::core::MakeVoterDomain();

    report::RepeatStats stats;
    eval::TechniqueResult lsh = RunTimed(ctx, LshBlocker(p), d, &stats);
    add_row(n, "LSH", 1, lsh, stats, d);

    SemanticParams sp;
    sp.w = 12;
    sp.mode = SemanticMode::kOr;
    sp.seed = 11;
    SemanticAwareLshBlocker sa_lsh(p, sp, domain.semantics);
    eval::TechniqueResult sa = RunTimed(ctx, sa_lsh, d, &stats);
    add_row(n, "SA-LSH", 1, sa, stats, d);

    // The same SA-LSH setting through the sharded engine at 1 and at
    // `threads` workers over the pinned shard count: identical blocks
    // (and so identical PC/PQ/RR), wall time divided by the parallelism
    // the hardware provides. Sharded runs are not repeated — the
    // engine_scaling scenario owns that measurement.
    sablock::engine::ExecutionSpec spec;
    spec.shards = shards;
    spec.threads = 1;
    eval::TechniqueResult par1 =
        sablock::eval::RunTechnique(sa_lsh, d, spec);
    add_row(n, "SA-LSH/par", 1, par1,
            report::SummarizeSeconds({par1.seconds}), d);
    if (threads > 1) {
      spec.threads = threads;
      eval::TechniqueResult parn =
          sablock::eval::RunTechnique(sa_lsh, d, spec);
      add_row(n, "SA-LSH/par", threads, parn,
              report::SummarizeSeconds({parn.seconds}), d);
    }

    // SF: building the semantic machinery alone (taxonomy + interpretation
    // + semhash signatures), the dashed series of Fig. 13(d).
    sablock::WallTimer sf_timer;
    sablock::core::Domain sf_domain = sablock::core::MakeVoterDomain();
    auto zetas = sf_domain.semantics->InterpretAll(d);
    auto enc =
        sablock::core::SemhashEncoder::Build(sf_domain.taxonomy(), zetas);
    auto sigs = enc.EncodeAll(sf_domain.taxonomy(), zetas);
    double sf_seconds = sf_timer.Seconds();
    table.AddRow({std::to_string(n), "SF", "1", "-", "-", "-",
                  FormatDouble(sf_seconds, 2)});
    report::RunResult sf;
    sf.name = "SF";
    sf.dataset = "voter-like";
    sf.dataset_records = d.size();
    sf.time = report::SummarizeSeconds({sf_seconds});
    ctx.Record(std::move(sf));
  }
  table.Print();

  std::printf(
      "\nShape check (paper, Fig. 13): PC stays flat across sizes (clean\n"
      "semantics), SA-LSH's PQ stays well above LSH's, RR ~0.9999\n"
      "everywhere, and all three time series grow linearly with the\n"
      "number of records, SF being the cheapest. The SA-LSH/par rows\n"
      "share PC/PQ/RR at every thread count (deterministic merge) and\n"
      "their time shrinks with the hardware's core count.\n");
  return 0;
}

}  // namespace

void RegisterFig13Scalability(report::BenchRegistry& registry) {
  registry.Register(
      {"fig13_scalability",
       "LSH / SA-LSH / SF scalability over growing Voter sets (E10)",
       {"max", "threads", "shards"}},
      RunFig13Scalability);
}

}  // namespace sablock::bench
