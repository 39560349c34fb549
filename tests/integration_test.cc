// End-to-end integration tests: the full paper pipeline on generated
// Cora-like and Voter-like data, plus cross-technique sanity orderings.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "run_streaming.h"

#include "baselines/adaptive_sorted_neighbourhood.h"
#include "baselines/canopy.h"
#include "baselines/qgram_indexing.h"
#include "baselines/sorted_neighbourhood.h"
#include "baselines/standard_blocking.h"
#include "baselines/stringmap.h"
#include "baselines/suffix_array.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/tuning.h"
#include "data/cora_generator.h"
#include "data/voter_generator.h"
#include "eval/harness.h"
#include "pipeline/meta_graph.h"
#include "pipeline/pipeline.h"

namespace sablock {
namespace {

using namespace sablock::baselines;  // NOLINT
using core::Domain;
using core::LshBlocker;
using core::LshParams;
using core::SemanticAwareLshBlocker;
using core::SemanticMode;
using core::SemanticParams;
using data::Dataset;

Dataset MakeCora() {
  data::CoraGeneratorConfig config;
  config.num_entities = 60;
  config.num_records = 450;
  config.seed = 71;
  return GenerateCoraLike(config);
}

Dataset MakeVoter() {
  data::VoterGeneratorConfig config;
  config.num_records = 1200;
  config.seed = 72;
  return GenerateVoterLike(config);
}

LshParams CoraLsh() {
  LshParams p;
  p.k = 3;
  p.l = 20;
  p.q = 3;
  p.attributes = {"authors", "title"};
  p.seed = 5;
  return p;
}

LshParams VoterLsh() {
  LshParams p;
  p.k = 6;
  p.l = 15;
  p.q = 2;
  p.attributes = {"first_name", "last_name"};
  p.seed = 5;
  return p;
}

TEST(IntegrationTest, TunedPipelineOnCora) {
  Dataset d = MakeCora();

  // Step (i): learn the true-match similarity distribution.
  core::DistributionOptions options;
  options.attributes = {"authors", "title"};
  options.q = 3;
  core::SimilarityDistribution dist =
      core::MeasureTrueMatchSimilarity(d, options);
  ASSERT_GT(dist.count(), 0u);
  double sh = dist.ThresholdForErrorRatio(0.05);
  double sl = sh > 0.1 ? sh - 0.1 : sh / 2.0;

  // Step (ii): solve for (k, l).
  core::LshTuning tuning = core::TuneKL(sh, 0.4, sl, 0.1);
  ASSERT_TRUE(tuning.feasible);
  EXPECT_GE(tuning.k, 1);
  EXPECT_GE(tuning.l, 1);

  // Step (iii): run SA-LSH with the tuned textual parameters.
  LshParams p;
  p.k = tuning.k;
  p.l = std::min(tuning.l, 80);  // cap for test runtime
  p.attributes = {"authors", "title"};
  Domain domain = core::MakeBibliographicDomain();
  SemanticParams sp;
  sp.w = 5;
  sp.mode = SemanticMode::kOr;
  eval::TechniqueResult result = eval::RunTechnique(
      SemanticAwareLshBlocker(p, sp, domain.semantics), d);
  EXPECT_GT(result.metrics.pc, 0.6);
  EXPECT_GT(result.metrics.fm, 0.1);
}

TEST(IntegrationTest, SaLshImprovesPqOverLshOnCora) {
  Dataset d = MakeCora();
  Domain domain = core::MakeBibliographicDomain();
  SemanticParams sp;
  sp.w = 5;
  sp.mode = SemanticMode::kOr;

  eval::Metrics lsh = eval::RunTechnique(LshBlocker(CoraLsh()), d).metrics;
  eval::Metrics sa =
      eval::RunTechnique(
          SemanticAwareLshBlocker(CoraLsh(), sp, domain.semantics), d)
          .metrics;

  // The paper's central claim (Fig. 9): semantic filtering improves PQ and
  // RR; PC may dip slightly because Cora-like semantics are noisy.
  EXPECT_GT(sa.pq, lsh.pq);
  EXPECT_GE(sa.rr, lsh.rr);
  EXPECT_GE(sa.pc, lsh.pc - 0.15);
  EXPECT_LT(sa.distinct_pairs, lsh.distinct_pairs);
}

TEST(IntegrationTest, SaLshImprovesPqOverLshOnVoter) {
  Dataset d = MakeVoter();
  Domain domain = core::MakeVoterDomain();
  SemanticParams sp;
  sp.w = 9;
  sp.mode = SemanticMode::kOr;

  eval::Metrics lsh = eval::RunTechnique(LshBlocker(VoterLsh()), d).metrics;
  eval::Metrics sa =
      eval::RunTechnique(
          SemanticAwareLshBlocker(VoterLsh(), sp, domain.semantics), d)
          .metrics;
  EXPECT_GE(sa.pq, lsh.pq);
  EXPECT_GE(sa.rr, lsh.rr);
  // Voter semantics are uncertain but only mildly noisy (the generator
  // flips gender/race on ~2% of duplicates): PC moves only slightly.
  EXPECT_GE(sa.pc, lsh.pc - 0.07);
}

TEST(IntegrationTest, AllBaselinesRunOnCora) {
  Dataset d = MakeCora();
  const std::vector<std::string> key = {"authors", "title"};

  std::vector<std::unique_ptr<core::BlockingTechnique>> techniques;
  techniques.push_back(std::make_unique<StandardBlocking>(key));
  techniques.push_back(std::make_unique<SortedNeighbourhoodArray>(key, 3));
  techniques.push_back(
      std::make_unique<SortedNeighbourhoodInvertedIndex>(key, 3));
  techniques.push_back(std::make_unique<AdaptiveSortedNeighbourhood>(
      key, "jaro_winkler", 0.8));
  techniques.push_back(std::make_unique<QGramIndexing>(key, 2, 0.9));
  techniques.push_back(std::make_unique<CanopyThreshold>(
      key, CanopySimilarity::kJaccard, 0.4, 0.7));
  techniques.push_back(std::make_unique<CanopyNearestNeighbour>(
      key, CanopySimilarity::kTfIdfCosine, 10, 5));
  techniques.push_back(
      std::make_unique<StringMapThreshold>(key, 0.8, 100, 8));
  techniques.push_back(
      std::make_unique<StringMapNearestNeighbour>(key, 5, 100, 8));
  techniques.push_back(std::make_unique<SuffixArrayBlocking>(key, 5, 20));
  techniques.push_back(
      std::make_unique<SuffixArrayAllSubstrings>(key, 7, 20));
  techniques.push_back(std::make_unique<RobustSuffixArrayBlocking>(
      key, 5, 20, "edit", 0.85));
  std::unique_ptr<pipeline::PipelinedBlocker> meta;
  ASSERT_TRUE(pipeline::Build(
                  "token-blocking:attrs=authors+title | purge:max_size=500 | "
                  "meta:weight=js,prune=wep",
                  &meta)
                  .ok());
  techniques.push_back(std::move(meta));

  std::vector<eval::TechniqueResult> results = eval::RunAll(techniques, d);
  ASSERT_EQ(results.size(), techniques.size());
  for (const auto& r : results) {
    // Every technique must find at least some true matches on this dirty
    // but small dataset, within sane metric bounds.
    EXPECT_GE(r.metrics.pc, 0.0) << r.name;
    EXPECT_LE(r.metrics.pc, 1.0) << r.name;
    EXPECT_GE(r.seconds, 0.0) << r.name;
    EXPECT_GT(r.metrics.distinct_pairs, 0u) << r.name;
  }

  // LSH-family results participate in the same harness.
  eval::TechniqueResult lsh = eval::RunTechnique(LshBlocker(CoraLsh()), d);
  EXPECT_GT(lsh.metrics.pc, 0.5);
}

TEST(IntegrationTest, MetaBlockingSweepOnCora) {
  Dataset d = MakeCora();
  core::BlockCollection input =
      RunSpec("token-blocking:attrs=authors+title | purge:max_size=200", d);
  eval::Metrics initial = eval::Evaluate(d, input);
  EXPECT_GT(initial.pc, 0.8);  // token blocking is high-recall

  using pipeline::MetaPruning;
  for (MetaPruning pruning : {MetaPruning::kWep, MetaPruning::kCep,
                              MetaPruning::kWnp, MetaPruning::kCnp}) {
    core::BlockCollection kept;
    pipeline::MetaPrune(d.size(), input, pipeline::MetaWeighting::kArcs,
                        pruning, kept);
    eval::Metrics pruned = eval::Evaluate(d, kept);
    EXPECT_GE(pruned.pq_star, initial.pq_star)
        << pipeline::MetaPruningName(pruning);
    EXPECT_LE(pruned.pc, initial.pc + 1e-12)
        << pipeline::MetaPruningName(pruning);
  }
}

TEST(IntegrationTest, ScalabilityPrefixesPreserveQualityShape) {
  data::VoterGeneratorConfig config;
  config.num_records = 3000;
  config.seed = 90;
  Dataset full = GenerateVoterLike(config);
  Domain domain = core::MakeVoterDomain();
  SemanticParams sp;
  sp.w = 9;
  sp.mode = SemanticMode::kOr;

  for (size_t n : {1000u, 2000u, 3000u}) {
    Dataset subset = full.Prefix(n);
    eval::Metrics m =
        eval::RunTechnique(
            SemanticAwareLshBlocker(VoterLsh(), sp, domain.semantics),
            subset)
            .metrics;
    EXPECT_GT(m.pc, 0.5) << n;
    EXPECT_GT(m.rr, 0.9) << n;
  }
}

}  // namespace
}  // namespace sablock
