// The three batch workloads: the paper's SA-LSH on Voter through the
// sharded engine, and the token-blocking | purge | meta / progressive
// pipelines on Cora.
//
// Every measured rep starts from a ColdCopy of the parsed dataset, so it
// pays the feature build exactly like a fresh CLI run does, and ends at
// the distinct pair set. The traced run interleaves those reps with the
// same run split into one call per layer, each inside a bench-side span;
// the spans give the per-layer metrics, and their sum over the run's
// critical path is compared with the untraced run time (trace.coverage).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/semhash.h"
#include "data/csv.h"
#include "e2e.h"
#include "engine/execution_spec.h"
#include "engine/sharded_executor.h"
#include "features/feature_store.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"

namespace sablock::e2e {
namespace {

constexpr char kSalshSpec[] = "sa-lsh:k=9,l=15,q=2,w=12,mode=or,domain=voter";
constexpr char kSalshExecution[] = "threads=4,shards=8,merge=collect";
constexpr char kCoraPipeline[] =
    "token-blocking:attrs=authors+title | purge:max_size=500";
constexpr char kProgressiveStage[] = "progressive:sched=ew-cbs";

/// Parses the CSV until a second has passed (at least 3 times), reports
/// the median as setup_s and returns the last parse.
data::Dataset LoadCsv(const Options& options, const char* file,
                      Tracer* tracer, Result* result) {
  const std::string path = options.inputs + "/" + file;
  std::vector<double> seconds;
  data::Dataset dataset;
  WallTimer total;
  while (seconds.size() < 3 || total.Seconds() < 1.0) {
    Status s;
    seconds.push_back(Timed(tracer, "data.csv_parse", [&] {
      s = data::ReadCsv(path, "entity", &dataset);
    }));
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  }
  result->Metric("setup_s", Median(seconds), "s");
  if (tracer != nullptr) {
    result->Metric("data.csv_parse_s", Median(seconds), "s");
  }
  return dataset;
}

void PinPairs(const PairSummary& summary, Result* result) {
  result->checks.Set("distinct_pairs", summary.pairs);
  result->checks.Set("pair_digest", Hex(summary.digest));
  result->checks.Set("pc", summary.pc);
}

/// Repeats cold runs until --seconds have passed, at least min_reps
/// times, each followed by `after_rep` (the traced split on traced runs).
/// A rep whose output differs from the first rep's counts as failed.
/// Reports the medians of run_s and peak_rss_mb and returns the first
/// rep's output.
template <typename RunFn, typename AfterRepFn>
PairSummary MeasureColdRuns(const Options& options,
                            const data::Dataset& dataset, RunFn&& run,
                            AfterRepFn&& after_rep, Result* result,
                            uint64_t* sequence_digest = nullptr) {
  const uint64_t true_pairs = dataset.CountTrueMatchPairs();
  std::vector<double> seconds;
  std::vector<double> rss_mb;
  PairSummary first;
  uint64_t first_sequence = 0;
  WallTimer total;
  for (int rep = 0;
       rep < options.sizes.min_reps || total.Seconds() < options.seconds;
       ++rep) {
    {
      ResetPeakRss();
      data::Dataset cold = dataset.ColdCopy();
      core::BlockCollection blocks;
      WallTimer timer;
      run(cold, &blocks);
      PairSet pairs = blocks.DistinctPairs();
      seconds.push_back(timer.Seconds());
      rss_mb.push_back(PeakRssMb());

      const PairSummary summary = SummarizePairs(dataset, pairs, true_pairs);
      const uint64_t sequence = SequenceDigest(blocks);
      if (rep == 0) {
        first = summary;
        first_sequence = sequence;
      }
      result->Attempt(summary.pairs == first.pairs &&
                      summary.digest == first.digest &&
                      sequence == first_sequence);
    }
    after_rep(first);
  }
  std::fprintf(stderr, "%zu cold reps, median %.4f s\n", seconds.size(),
               Median(seconds));
  result->Metric("run_s", Median(seconds), "s");
  result->Metric("peak_rss_mb", Median(rss_mb), "MiB");
  PinPairs(first, result);
  if (sequence_digest != nullptr) *sequence_digest = first_sequence;
  return first;
}

/// Checks a traced rep's pairs against the untraced reps' output.
void CheckTracedRep(const data::Dataset& dataset, const PairSet& pairs,
                    const PairSummary& expected, Result* result) {
  const PairSummary got =
      SummarizePairs(dataset, pairs, dataset.CountTrueMatchPairs());
  result->Attempt(got.pairs == expected.pairs &&
                  got.digest == expected.digest);
}

/// Reports the median of every span in `names` as `<name>_s` and returns
/// their sum: the layers on the run's critical path.
double ReportSpans(const Tracer& tracer,
                   const std::vector<const char*>& names, Result* result) {
  double sum = 0.0;
  for (const char* name : names) {
    const double median = MedianSpan(tracer, name);
    result->Metric(std::string(name) + "_s", median, "s");
    sum += median;
  }
  return sum;
}

void ReportTraceTotals(const Tracer& tracer, double critical_path_sum,
                       Result* result) {
  const double run_s =
      result->metrics.Find("run_s")->Find("value")->double_value();
  const double traced_s = MedianSpan(tracer, "run");
  result->Metric("trace.coverage", critical_path_sum / run_s, "ratio");
  result->Metric("trace.overhead_frac", (traced_s - run_s) / run_s, "ratio");
}

/// Feeds `input` through a one-stage chain built from `prototype` into
/// `out`: the stage's Consume calls plus its Flush.
void RunStage(const pipeline::PipelineStage& prototype,
              const data::Dataset& dataset, core::BlockCollection input,
              core::BlockCollection* out) {
  pipeline::Pipeline one;
  one.Add(prototype.Clone());
  pipeline::Chain chain = one.Instantiate(dataset, *out);
  input.Drain(chain.head());
  chain.Flush();
}

}  // namespace

void RunSalshVoter(const Options& options, Tracer* tracer, Result* result) {
  const data::Dataset dataset =
      LoadCsv(options, "voter.csv", tracer, result);

  std::unique_ptr<core::BlockingTechnique> technique;
  Status s = api::BlockerRegistry::Global().Create(kSalshSpec, &technique);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  engine::ExecutionSpec spec;
  s = engine::ExecutionSpec::Parse(kSalshExecution, &spec);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  const engine::ShardedExecutor executor(spec);
  result->threads = spec.threads;
  const core::LshParams lsh =
      dynamic_cast<const core::SemanticAwareLshBlocker&>(*technique)
          .lsh_params();

  std::vector<double> cold_execute;
  auto run = [&](const data::Dataset& cold, core::BlockCollection* out) {
    WallTimer timer;
    executor.Execute(*technique, cold, *out);
    cold_execute.push_back(timer.Seconds());
  };

  // The same run, one layer call at a time: the feature columns the
  // first shard would build (while the other shards wait), then the
  // engine on warm features, then the pair dedup. Like an untraced rep,
  // it starts from a trimmed heap and keeps nothing alive afterwards:
  // Execute runs measurably slower beside a live copy of the features.
  auto traced_rep = [&](const PairSummary& expected) {
    if (tracer == nullptr) return;
    ResetPeakRss();
    data::Dataset cold = dataset.ColdCopy();
    core::BlockCollection blocks;
    PairSet pairs;
    {
      ScopedSpan root(tracer, "run");
      const features::FeatureStore& store = cold.features().store();
      Timed(tracer, "features.text_build",
            [&] { store.Texts(lsh.attributes); });
      Timed(tracer, "features.shingle_build",
            [&] { store.Shingles(lsh.attributes, lsh.q); });
      Timed(tracer, "features.signature_build", [&] {
        store.Signatures(lsh.attributes, lsh.q, lsh.k * lsh.l, lsh.seed);
      });
      Timed(tracer, "engine.execute",
            [&] { executor.Execute(*technique, cold, blocks); });
      Timed(tracer, "eval.dedup", [&] { pairs = blocks.DistinctPairs(); });
    }
    CheckTracedRep(dataset, pairs, expected, result);
  };
  const PairSummary summary =
      MeasureColdRuns(options, dataset, run, traced_rep, result);
  if (tracer == nullptr) return;

  const double critical = ReportSpans(
      *tracer,
      {"features.text_build", "features.shingle_build",
       "features.signature_build", "engine.execute", "eval.dedup"},
      result);
  ReportTraceTotals(*tracer, critical, result);
  const double execute_s = MedianSpan(*tracer, "engine.execute");
  result->Metric("features.critical_path_s",
                 Median(cold_execute) - execute_s, "s");

  data::Dataset warm = dataset.ColdCopy();
  core::BlockCollection warm_blocks;
  executor.Execute(*technique, warm, warm_blocks);
  result->Metric("core.blocks", static_cast<double>(warm_blocks.NumBlocks()),
                 "count");
  result->Metric("core.comparisons",
                 static_cast<double>(warm_blocks.TotalComparisons()),
                 "count");
  result->Metric("eval.distinct_pairs", static_cast<double>(summary.pairs),
                 "count");

  // What each shard task does inside Execute, one shard at a time: the
  // semantic interpretation and encoding (here over the whole dataset)
  // and the technique's Run on a warm slice.
  const core::Domain domain = core::MakeVoterDomain();
  const double semantic_s = Timed(tracer, "core.semantic", [&] {
    auto zetas = domain.semantics->InterpretAll(warm);
    auto encoder = core::SemhashEncoder::Build(domain.taxonomy(), zetas);
    auto signatures = encoder.EncodeAll(domain.taxonomy(), zetas);
    SABLOCK_CHECK(signatures.size() == warm.size());
  });
  result->Metric("core.semantic_s", semantic_s, "s");
  std::vector<double> shard_s;
  for (const engine::ShardRange& range :
       engine::MakeShardRanges(warm.size(), spec.ResolvedShards())) {
    const data::Dataset shard = warm.Slice(range.begin, range.end);
    core::BlockCollection blocks;
    shard_s.push_back(Timed(tracer, "core.shard_run",
                            [&] { technique->Run(shard, blocks); }));
  }
  double sum = 0.0;
  for (double seconds : shard_s) sum += seconds;
  const double max = *std::max_element(shard_s.begin(), shard_s.end());
  result->Metric("core.shard_run_s_sum", sum, "s");
  result->Metric("core.shard_run_s_max", max, "s");
  result->Metric("engine.parallel_efficiency",
                 sum / (spec.threads * execute_s), "ratio");
  result->Metric("engine.shard_imbalance",
                 max / (sum / static_cast<double>(shard_s.size())), "ratio");
}

namespace {

/// token-blocking | purge | `tail` over the Cora CSV, one thread. The
/// traced split times the token feature build, the warm generator, and
/// each stage on a one-stage chain fed the upstream stage's blocks.
void RunCoraPipeline(const Options& options, const std::string& tail,
                     const char* tail_span, Tracer* tracer, Result* result) {
  const data::Dataset dataset = LoadCsv(options, "cora.csv", tracer, result);
  std::unique_ptr<pipeline::PipelinedBlocker> blocker;
  Status s = pipeline::Build(std::string(kCoraPipeline) + " | " + tail,
                             &blocker);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  const std::vector<std::string> attrs = {"authors", "title"};
  const auto& stages = blocker->stages().stages();
  const bool progressive = stages[1]->spec_name() == "progressive";

  auto run = [&](const data::Dataset& cold, core::BlockCollection* out) {
    blocker->Run(cold, *out);
  };

  uint64_t generated_blocks = 0;
  uint64_t generated_comparisons = 0;
  uint64_t purged_comparisons = 0;
  uint64_t tail_pairs = 0;
  auto traced_rep = [&](const PairSummary& expected) {
    if (tracer == nullptr) return;
    ResetPeakRss();
    data::Dataset cold = dataset.ColdCopy();
    core::BlockCollection generated;
    core::BlockCollection purged;
    core::BlockCollection out;
    PairSet pairs;
    {
      ScopedSpan root(tracer, "run");
      const features::FeatureStore& store = cold.features().store();
      Timed(tracer, "features.text_build", [&] { store.Texts(attrs); });
      Timed(tracer, "features.token_build", [&] { store.Tokens(attrs); });
      Timed(tracer, "core.generator",
            [&] { blocker->blocker().Run(cold, generated); });
      generated_blocks = generated.NumBlocks();
      generated_comparisons = generated.TotalComparisons();
      Timed(tracer, "pipeline.purge", [&] {
        RunStage(*stages[0], cold, std::move(generated), &purged);
      });
      purged_comparisons = purged.TotalComparisons();
      Timed(tracer, tail_span, [&] {
        RunStage(*stages[1], cold, std::move(purged), &out);
      });
      Timed(tracer, "eval.dedup", [&] { pairs = out.DistinctPairs(); });
    }
    tail_pairs = out.TotalComparisons();
    CheckTracedRep(dataset, pairs, expected, result);
  };

  uint64_t emitted_digest = 0;
  const PairSummary summary = MeasureColdRuns(
      options, dataset, run, traced_rep, result, &emitted_digest);
  if (progressive) {
    // Every emitted pair is distinct and the budget bounds them, at any
    // seed; the emitted order is pinned too.
    result->Attempt(summary.pairs <= options.sizes.progressive_pairs);
    result->checks.Set("emitted_digest", Hex(emitted_digest));
  }
  if (tracer == nullptr) return;

  const double critical = ReportSpans(
      *tracer,
      {"features.text_build", "features.token_build", "core.generator",
       "pipeline.purge", tail_span, "eval.dedup"},
      result);
  ReportTraceTotals(*tracer, critical, result);
  result->Metric("core.blocks", static_cast<double>(generated_blocks),
                 "count");
  result->Metric("core.comparisons",
                 static_cast<double>(generated_comparisons), "count");
  result->Metric("eval.distinct_pairs", static_cast<double>(summary.pairs),
                 "count");
  if (!progressive) {
    result->Metric("pipeline.meta_pairs_out", static_cast<double>(tail_pairs),
                   "count");
    result->Metric("pipeline.meta_keep_ratio",
                   static_cast<double>(tail_pairs) /
                       static_cast<double>(purged_comparisons),
                   "ratio");
    return;
  }

  // The same stage without a budget, fed the same purged blocks: what
  // the budget saves.
  std::unique_ptr<pipeline::PipelineStage> unlimited;
  s = pipeline::StageRegistry::Global().Create(kProgressiveStage, &unlimited);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  data::Dataset warm = dataset.ColdCopy();
  uint64_t scored = 0;
  for (int rep = 0; rep < options.sizes.min_reps; ++rep) {
    core::BlockCollection generated;
    core::BlockCollection purged;
    core::BlockCollection out;
    blocker->blocker().Run(warm, generated);
    RunStage(*stages[0], warm, std::move(generated), &purged);
    Timed(tracer, "progressive.stage_unlimited", [&] {
      RunStage(*unlimited, warm, std::move(purged), &out);
    });
    scored = out.NumBlocks();
  }
  const double stage_s = MedianSpan(*tracer, "progressive.stage");
  const double unlimited_s =
      MedianSpan(*tracer, "progressive.stage_unlimited");
  result->Metric("progressive.stage_s_unlimited", unlimited_s, "s");
  result->Metric("progressive.budget_cost_ratio", stage_s / unlimited_s,
                 "ratio");
  result->Metric("progressive.pairs_scored", static_cast<double>(scored),
                 "count");
  result->Metric("progressive.pairs_emitted",
                 static_cast<double>(summary.pairs), "count");
}

}  // namespace

void RunMetaCora(const Options& options, Tracer* tracer, Result* result) {
  RunCoraPipeline(options, "meta:weight=cbs,prune=wnp", "pipeline.meta",
                  tracer, result);
}

void RunProgressiveCora(const Options& options, Tracer* tracer,
                        Result* result) {
  RunCoraPipeline(options,
                  std::string(kProgressiveStage) + ",pairs=" +
                      std::to_string(options.sizes.progressive_pairs),
                  "progressive.stage", tracer, result);
}

}  // namespace sablock::e2e
