// Bibliography deduplication, end to end: generate a dirty Cora-like
// citation dataset, learn the LSH parameters from the data (Section 5.3),
// then block with LSH and SA-LSH and compare against two classic
// baselines. Demonstrates the full tuning + blocking workflow a user
// would run on their own bibliographic data.
//
// Usage: ./build/examples/bibliography_dedup [records]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/sorted_neighbourhood.h"
#include "baselines/standard_blocking.h"
#include "core/collision.h"
#include "common/string_util.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "core/tuning.h"
#include "data/cora_generator.h"
#include "eval/harness.h"

using sablock::core::LshBlocker;
using sablock::core::LshParams;
using sablock::core::SemanticAwareLshBlocker;
using sablock::core::SemanticMode;
using sablock::core::SemanticParams;

int main(int argc, char** argv) {
  size_t records = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 1879;

  // 1. A dirty citation dataset (stand-in for Cora; see DESIGN.md §2).
  sablock::data::CoraGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 10;
  config.seed = 42;
  sablock::data::Dataset d = GenerateCoraLike(config);
  std::printf("dataset: %zu records, %llu true match pairs\n\n", d.size(),
              static_cast<unsigned long long>(d.CountTrueMatchPairs()));

  // 2. Learn the similarity distribution of true matches on a training
  //    sample and derive s_h for a 5% error budget (Section 5.3 step i).
  sablock::core::DistributionOptions options;
  options.attributes = {"authors", "title"};
  options.q = 4;
  options.max_pairs = 20000;
  sablock::core::SimilarityDistribution dist =
      MeasureTrueMatchSimilarity(d, options);
  double sh = dist.ThresholdForErrorRatio(0.05);
  double sl = sh > 0.1 ? sh - 0.1 : sh * 0.5;
  std::printf("learned thresholds: s_h=%.2f (eps=5%%), s_l=%.2f\n", sh, sl);

  // 3. Solve for the smallest (k, l) meeting the collision targets
  //    (step ii): p(s_h) >= 0.4, p(s_l) <= 0.1.
  sablock::core::LshTuning tuning = sablock::core::TuneKL(sh, 0.4, sl, 0.1);
  if (!tuning.feasible) {
    std::printf("tuning infeasible; falling back to k=4, l=63\n");
    tuning.k = 4;
    tuning.l = 63;
  }
  std::printf("tuned parameters: k=%d, l=%d\n\n", tuning.k, tuning.l);

  LshParams lsh;
  lsh.k = tuning.k;
  lsh.l = tuning.l;
  lsh.q = 4;
  lsh.attributes = {"authors", "title"};

  // 4. Blocking: semantic machinery from the bibliographic domain, w-way
  //    OR over the full 5-bit signature (step iii: noisy semantics -> OR).
  sablock::core::Domain domain = sablock::core::MakeBibliographicDomain();
  SemanticParams sem;
  sem.w = 5;
  sem.mode = SemanticMode::kOr;

  const std::vector<std::string> key = {"authors", "title"};

  sablock::eval::TablePrinter table(
      {"technique", "PC", "PQ", "RR", "FM", "pairs", "time(s)"});
  auto row = [&table](const sablock::eval::TechniqueResult& r) {
    table.AddRow({r.name, sablock::FormatDouble(r.metrics.pc, 4),
                  sablock::FormatDouble(r.metrics.pq, 4),
                  sablock::FormatDouble(r.metrics.rr, 4),
                  sablock::FormatDouble(r.metrics.fm, 4),
                  std::to_string(r.metrics.distinct_pairs),
                  sablock::FormatDouble(r.seconds, 3)});
  };
  row(sablock::eval::RunTechnique(
      sablock::baselines::StandardBlocking(key), d));
  row(sablock::eval::RunTechnique(
      sablock::baselines::SortedNeighbourhoodArray(key, 5), d));
  row(sablock::eval::RunTechnique(LshBlocker(lsh), d));
  row(sablock::eval::RunTechnique(
      SemanticAwareLshBlocker(lsh, sem, domain.semantics), d));
  table.Print();

  std::printf(
      "\nSA-LSH should dominate pair quality (PQ): semantically\n"
      "incompatible candidates (e.g. a journal article vs a technical\n"
      "report with near-identical titles) never share a block.\n");
  return 0;
}
