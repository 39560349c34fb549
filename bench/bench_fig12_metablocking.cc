// Experiment E9 — Fig. 12: SA-LSH vs meta-blocking. Token blocking forms
// the initial block collection; each pruning algorithm (WEP, CEP, WNP,
// CNP) is evaluated under all five weighting schemes (ARCS, CBS, ECBS,
// JS, EJS) and reported at its best-FM* weighting, alongside the initial
// blocks and SA-LSH, using the meta-blocking papers' PC / PQ* / FM*.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "eval/harness.h"
#include "pipeline/meta_graph.h"
#include "pipeline/pipeline.h"
#include "scenarios.h"

namespace sablock::bench {
namespace {

using sablock::pipeline::MetaPruning;
using sablock::pipeline::MetaPruningName;
using sablock::pipeline::MetaWeighting;
using sablock::pipeline::MetaWeightingName;
using sablock::core::SemanticAwareLshBlocker;
using sablock::core::SemanticMode;
using sablock::core::SemanticParams;

void RecordStarMetrics(report::BenchContext& ctx, const char* dataset_label,
                       const sablock::data::Dataset& d, std::string name,
                       const char* weighting,
                       const sablock::eval::Metrics& m) {
  report::RunResult run;
  run.name = std::move(name);
  run.dataset = dataset_label;
  run.dataset_records = d.size();
  if (weighting != nullptr) run.AddParam("weighting", weighting);
  run.has_metrics = true;
  run.metrics = m;
  ctx.Record(std::move(run));
}

/// Builds a pipeline spec; a spec that fails to build is a scenario bug
/// that must fail the suite, not silently drop a table.
std::unique_ptr<sablock::pipeline::PipelinedBlocker> BuildOrReport(
    const std::string& spec) {
  std::unique_ptr<sablock::pipeline::PipelinedBlocker> pipelined;
  Status status = sablock::pipeline::Build(spec, &pipelined);
  if (!status.ok()) {
    std::fprintf(stderr, "bad pipeline spec '%s': %s\n", spec.c_str(),
                 status.message().c_str());
  }
  return pipelined;
}

/// Returns false when a pipeline spec fails to build.
bool RunDataset(report::BenchContext& ctx, const char* title,
                const char* dataset_label, const sablock::data::Dataset& d,
                const std::vector<std::string>& attributes,
                const sablock::core::LshParams& lsh_params,
                const sablock::core::Domain& domain, int full_width,
                size_t purge_size) {
  std::printf("%s (%zu records)\n", title, d.size());

  // The initial collection is the `token-blocking | purge` prefix of the
  // pipeline timed below.
  const std::string token_spec = "token-blocking:attrs=" +
                                 Join(attributes, "+") +
                                 " | purge:max_size=" +
                                 std::to_string(purge_size);
  std::unique_ptr<sablock::pipeline::PipelinedBlocker> token_blocking =
      BuildOrReport(token_spec);
  if (token_blocking == nullptr) return false;
  sablock::core::BlockCollection initial = RunStreaming(*token_blocking, d);
  sablock::eval::Metrics init_m = sablock::eval::Evaluate(d, initial);

  eval::TablePrinter table({"method", "weighting", "PC", "PQ*", "FM*"});
  table.AddRow({"(initial blocks)", "-", FormatDouble(init_m.pc, 3),
                FormatDouble(init_m.pq_star, 4),
                FormatDouble(init_m.fm_star, 3)});
  RecordStarMetrics(ctx, dataset_label, d, "initial blocks", nullptr,
                    init_m);

  std::vector<std::pair<MetaPruning, const char*>> best_weights;
  for (MetaPruning pruning : {MetaPruning::kWep, MetaPruning::kCep,
                              MetaPruning::kWnp, MetaPruning::kCnp}) {
    sablock::eval::Metrics best;
    const char* best_weight = "-";
    for (MetaWeighting weighting :
         {MetaWeighting::kArcs, MetaWeighting::kCbs, MetaWeighting::kEcbs,
          MetaWeighting::kJs, MetaWeighting::kEjs}) {
      sablock::core::BlockCollection kept;
      sablock::pipeline::MetaPrune(d.size(), initial, weighting, pruning,
                                   kept);
      sablock::eval::Metrics m = sablock::eval::Evaluate(d, kept);
      if (m.fm_star > best.fm_star) {
        best = m;
        best_weight = MetaWeightingName(weighting);
      }
    }
    best_weights.emplace_back(pruning, best_weight);
    table.AddRow({MetaPruningName(pruning), best_weight,
                  FormatDouble(best.pc, 3), FormatDouble(best.pq_star, 4),
                  FormatDouble(best.fm_star, 3)});
    RecordStarMetrics(ctx, dataset_label, d, MetaPruningName(pruning),
                      best_weight, best);
  }

  SemanticParams sp;
  sp.w = full_width;
  sp.mode = SemanticMode::kOr;
  sp.seed = 11;
  sablock::eval::Metrics sa = sablock::eval::Evaluate(
      d, RunStreaming(
             SemanticAwareLshBlocker(lsh_params, sp, domain.semantics), d));
  table.AddRow({"SA-LSH", "-", FormatDouble(sa.pc, 3),
                FormatDouble(sa.pq_star, 4), FormatDouble(sa.fm_star, 3)});
  RecordStarMetrics(ctx, dataset_label, d, "SA-LSH", nullptr, sa);
  table.Print();

  // Per-stage cost breakdown of each pruning recipe, run as the pipeline
  // `token-blocking | purge | meta` at the best-FM* weighting found
  // above: where the wall time goes (token postings vs graph phase) and
  // how each stage reshapes the block/pair stream.
  std::printf("\npipeline stage timing (token-blocking | purge:max_size=%zu "
              "| meta) at best weighting\n",
              purge_size);
  eval::TablePrinter timing(
      {"pruning", "weighting", "t_token", "t_purge", "t_meta", "t_total",
       "blocks_in", "pairs_out"});
  for (const auto& [pruning, weight_name] : best_weights) {
    const std::string spec = token_spec + " | meta:weight=" +
                             ToLower(weight_name) +
                             ",prune=" + ToLower(MetaPruningName(pruning));
    std::unique_ptr<sablock::pipeline::PipelinedBlocker> pipelined =
        BuildOrReport(spec);
    if (pipelined == nullptr) return false;
    // Timing-only runs: the quality table above already evaluated every
    // combination, so skip the metrics pass. Per-stage counts are
    // identical across repeats; the recorded seconds keep the last
    // repetition's per-stage split while `time` summarizes the totals.
    sablock::eval::PipelineResult run;
    report::RepeatStats stats = ctx.TimeRepeats([&](int) {
      run = sablock::eval::RunPipeline(pipelined->blocker(),
                                       pipelined->stages(), d,
                                       /*evaluate=*/false);
      return run.seconds;
    });
    timing.AddRow({MetaPruningName(pruning), weight_name,
                   FormatDouble(run.stages[0].seconds, 3),
                   FormatDouble(run.stages[1].seconds, 3),
                   FormatDouble(run.stages[2].seconds, 3),
                   FormatDouble(run.seconds, 3),
                   std::to_string(run.stages[1].blocks),
                   std::to_string(run.stages[2].comparisons)});

    report::RunResult result;
    result.name = std::string("pipeline ") + MetaPruningName(pruning);
    result.spec = spec;
    result.dataset = dataset_label;
    result.dataset_records = d.size();
    result.AddParam("weighting", weight_name);

    // The same spec through PipelinedBlocker::Run on its own cold copy,
    // with no harness around it: the instrument's cost is the harness
    // row's time against this one.
    report::RunResult plain = result;
    plain.name += " plain";
    plain.time = ctx.TimeRepeats([&](int) {
      sablock::data::Dataset cold = d.ColdCopy();
      sablock::core::BlockCollection blocks;
      WallTimer timer;
      pipelined->Run(cold, blocks);
      return timer.Seconds();
    });
    result.time = stats;
    result.stages = run.stages;
    ctx.Record(std::move(result));
    ctx.Record(std::move(plain));
  }
  timing.Print();
  std::printf("\n");
  return true;
}

int RunFig12MetaBlocking(report::BenchContext& ctx) {
  size_t cora_records = ctx.SizeOr("cora", 1879, 400);
  size_t voter_records = ctx.SizeOr("voter", 30000, 2000);

  std::printf("Fig. 12 reproduction (E9): SA-LSH vs meta-blocking\n\n");

  bool ok = RunDataset(
      ctx, "(a) Cora-like data set", "cora-like",
      MakePaperCora(cora_records), {"authors", "title"}, CoraLshParams(),
      sablock::core::MakeBibliographicDomain(), /*full_width=*/5,
      /*purge_size=*/400);

  ok = RunDataset(ctx, "(b) Voter-like data set", "voter-like",
                  MakePaperVoter(voter_records),
                  {"first_name", "last_name"}, VoterLshParams(),
                  sablock::core::MakeVoterDomain(), /*full_width=*/12,
                  /*purge_size=*/500) &&
       ok;

  std::printf(
      "Shape check (paper, Fig. 12): meta-blocking's best pruning beats\n"
      "SA-LSH on FM* (its output is exactly the retained non-redundant\n"
      "pairs, so PQ* is high by construction), while SA-LSH retains more\n"
      "true matches per pruning aggressiveness — on Cora it has the\n"
      "highest PC of all pruned methods, as in the paper.\n");
  return ok ? 0 : 1;
}

}  // namespace

void RegisterFig12MetaBlocking(report::BenchRegistry& registry) {
  registry.Register(
      {"fig12_metablocking",
       "SA-LSH vs meta-blocking with per-stage pipeline timing (E9)",
       {"cora", "voter"}},
      RunFig12MetaBlocking);
}

}  // namespace sablock::bench
