#ifndef SABLOCK_BENCH_SCENARIOS_H_
#define SABLOCK_BENCH_SCENARIOS_H_

// The benchmark suite: every figure/table experiment of the paper (and
// the engineering benches that grew alongside them) registers itself as
// a named scenario in report::BenchRegistry, and one runner binary —
// sablock_bench — lists, filters, runs and reports them. tools/
// sablock_bench.cc is a two-line main over BenchMain; the report golden
// test drives BenchMain directly.

#include "report/bench_registry.h"

namespace sablock::bench {

/// Registers every scenario below into `registry`. Call once per
/// registry (duplicate registration aborts); BenchMain guards the global
/// registry with a static flag.
void RegisterAllScenarios(report::BenchRegistry& registry);

/// Idempotent RegisterAllScenarios(BenchRegistry::Global()).
void EnsureScenariosRegistered();

/// The sablock_bench entry point:
///   sablock_bench [--list] [--filter=SUB[,SUB...]] [--quick]
///                 [--repeat=N] [--json=FILE] [--NAME=NUMBER ...]
/// Numeric --NAME=NUMBER flags become BenchContext size overrides (e.g.
/// --cora=500 --voter=2000 --shards=4). Returns 0 when every selected
/// scenario passed, 1 when any failed or the JSON could not be written,
/// 2 on a usage error. When the scenarios ran and `suite_out` is
/// non-null, it receives the SuiteResult that --json serializes.
int BenchMain(int argc, char** argv,
              report::SuiteResult* suite_out = nullptr);

// One registration function per scenario (defined in the bench_*.cc
// files, called by RegisterAllScenarios).
void RegisterFig5Collision(report::BenchRegistry& registry);
void RegisterFig6Distributions(report::BenchRegistry& registry);
void RegisterFig7SemhashCora(report::BenchRegistry& registry);
void RegisterFig8SemhashVoter(report::BenchRegistry& registry);
void RegisterFig9LshVsSalsh(report::BenchRegistry& registry);
void RegisterFig12MetaBlocking(report::BenchRegistry& registry);
void RegisterFig13Scalability(report::BenchRegistry& registry);
void RegisterTable1Patterns(report::BenchRegistry& registry);
void RegisterTable2TaxonomyVariants(report::BenchRegistry& registry);
void RegisterTable3Fig11Baselines(report::BenchRegistry& registry);
void RegisterAblationSemantics(report::BenchRegistry& registry);
void RegisterEngineScaling(report::BenchRegistry& registry);
void RegisterLshVariants(report::BenchRegistry& registry);
void RegisterMicro(report::BenchRegistry& registry);
void RegisterServiceLatency(report::BenchRegistry& registry);
void RegisterSnapshotIo(report::BenchRegistry& registry);
void RegisterProgressiveRecall(report::BenchRegistry& registry);

}  // namespace sablock::bench

#endif  // SABLOCK_BENCH_SCENARIOS_H_
