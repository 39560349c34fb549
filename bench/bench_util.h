#ifndef SABLOCK_BENCH_BENCH_UTIL_H_
#define SABLOCK_BENCH_BENCH_UTIL_H_

// Shared setup for the experiment binaries: paper-sized datasets, the
// paper's LSH operating points, and the Table 3 baseline parameter grids.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "api/registry.h"
#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/domains.h"
#include "core/lsh_blocker.h"
#include "data/cora_generator.h"
#include "data/voter_generator.h"
#include "eval/harness.h"
#include "report/bench_registry.h"

namespace sablock::bench {

/// Back-to-back calls per timed repetition of a row whose one call covers
/// `records` records: enough that a repetition covers about
/// `records_per_repetition`. The count depends on the record count only
/// and lifts short rows above bench_compare.py's 10 ms TIME floor.
inline size_t CallsPerRepetition(size_t records,
                                 size_t records_per_repetition) {
  if (records == 0) return 1;
  return std::max<size_t>(
      1, (records_per_repetition + records - 1) / records);
}

/// The Cora-scale bibliographic dataset (1,879 records / 190 entities, as
/// in the paper) from the generator substitute.
inline data::Dataset MakePaperCora(size_t records = 1879,
                                   uint64_t seed = 42) {
  data::CoraGeneratorConfig config;
  config.num_records = records;
  config.num_entities = std::max<size_t>(records / 10, 1);
  config.seed = seed;
  return GenerateCoraLike(config);
}

/// The NC-Voter-scale person dataset (30,000 records for the quality
/// experiments; pass 292892 for the scalability set).
inline data::Dataset MakePaperVoter(size_t records = 30000,
                                    uint64_t seed = 97) {
  data::VoterGeneratorConfig config;
  config.num_records = records;
  config.seed = seed;
  return GenerateVoterLike(config);
}

/// The paper's Cora operating point: k=4, l=63, q=4-grams over
/// authors+title (Section 6.1).
inline core::LshParams CoraLshParams() {
  core::LshParams p;
  p.k = 4;
  p.l = 63;
  p.q = 4;
  p.attributes = {"authors", "title"};
  p.seed = 7;
  return p;
}

/// The paper's NC Voter operating point: k=9, l=15, q=2-grams over
/// first+last name (Section 6.1).
inline core::LshParams VoterLshParams() {
  core::LshParams p;
  p.k = 9;
  p.l = 15;
  p.q = 2;
  p.attributes = {"first_name", "last_name"};
  p.seed = 7;
  return p;
}

/// A named family of parameter settings for one technique.
struct TechniqueGrid {
  std::string family;  // e.g. "SorA"
  std::vector<std::unique_ptr<core::BlockingTechnique>> settings;
};

/// Runs a technique through the streaming Run(dataset, sink) API and
/// materializes the blocks (the benches' replacement for the legacy
/// collecting wrapper).
inline core::BlockCollection RunStreaming(
    const core::BlockingTechnique& technique, const data::Dataset& dataset) {
  core::BlockCollection blocks;
  technique.Run(dataset, blocks);
  return blocks;
}

/// Builds one technique from a registry spec string; malformed specs are a
/// programming error in the bench and abort.
inline std::unique_ptr<core::BlockingTechnique> FromSpec(
    const std::string& spec) {
  std::unique_ptr<core::BlockingTechnique> technique;
  Status status = api::BlockerRegistry::Global().Create(spec, &technique);
  SABLOCK_CHECK_MSG(status.ok(), status.message().c_str());
  return technique;
}

/// eval::RunTechnique with the suite's repeat semantics: the first
/// repetition evaluates quality metrics, the remaining ctx.repeat-1 are
/// timing-only cold builds (metrics are deterministic across repeats, so
/// re-evaluating would only slow the suite down). The returned result's
/// `seconds` is the min over repetitions; `stats` (optional) receives
/// the full min/mean/p50 summary.
inline eval::TechniqueResult RunTimed(const report::BenchContext& ctx,
                                      const core::BlockingTechnique& t,
                                      const data::Dataset& d,
                                      report::RepeatStats* stats = nullptr) {
  eval::TechniqueResult result = eval::RunTechnique(t, d);
  std::vector<double> seconds = {result.seconds};
  for (int rep = 1; rep < ctx.repeat; ++rep) {
    data::Dataset cold = d.ColdCopy();
    WallTimer timer;
    core::BlockCollection blocks;
    t.Run(cold, blocks);
    seconds.push_back(timer.Seconds());
  }
  report::RepeatStats summary =
      report::SummarizeSeconds(std::move(seconds));
  result.seconds = summary.min_s;
  if (stats != nullptr) *stats = summary;
  return result;
}

/// Fills the common RunResult fields of one measured technique run.
/// `name` must be unique within (scenario, dataset, record count) — it
/// is the key tools/bench_compare.py matches runs across files by.
inline report::RunResult TechniqueRun(std::string name, std::string spec,
                                      std::string dataset_label,
                                      const data::Dataset& d,
                                      const eval::TechniqueResult& r,
                                      const report::RepeatStats& stats) {
  report::RunResult run;
  run.name = std::move(name);
  run.spec = std::move(spec);
  run.dataset = std::move(dataset_label);
  run.dataset_records = d.size();
  run.time = stats;
  run.has_metrics = true;
  run.metrics = r.metrics;
  return run;
}

/// Builds the 12-baseline parameter grids of Section 6.3.4 over the
/// '+'-joined blocking attributes, each setting constructed from its
/// registry spec string. The grids mirror the paper's sweep; the StringMap
/// grids are reduced from 32 to 8 settings because our embedding fixes the
/// base metric to edit distance (the paper's extra settings swept the
/// string comparator). See DESIGN.md §5.
inline std::vector<TechniqueGrid> BuildBaselineGrids(
    const std::string& attrs) {
  const std::string a = ",attrs=" + attrs;
  std::vector<TechniqueGrid> grids;
  auto add = [&grids](std::string family, std::vector<std::string> specs) {
    TechniqueGrid g{std::move(family), {}};
    g.settings.reserve(specs.size());
    for (const std::string& spec : specs) {
      g.settings.push_back(FromSpec(spec));
    }
    grids.push_back(std::move(g));
  };

  add("TBlo", {"tblo:" + a.substr(1)});
  {
    std::vector<std::string> sor_a;
    std::vector<std::string> sor_ii;
    for (int w : {2, 3, 5, 7, 10}) {
      sor_a.push_back("sor-a:window=" + std::to_string(w) + a);
      sor_ii.push_back("sor-ii:window=" + std::to_string(w) + a);
    }
    add("SorA", std::move(sor_a));
    add("SorII", std::move(sor_ii));
  }
  {
    std::vector<std::string> specs;
    for (const char* sim : {"jaro_winkler", "bigram", "edit", "lcs"}) {
      for (const char* thr : {"0.8", "0.9"}) {
        specs.push_back(std::string("asor:sim=") + sim + ",threshold=" +
                        thr + ",max-block=50" + a);
      }
    }
    add("ASor", std::move(specs));
  }
  {
    std::vector<std::string> specs;
    for (int q : {2, 3}) {
      for (const char* thr : {"0.8", "0.9"}) {
        specs.push_back("qgram:q=" + std::to_string(q) + ",threshold=" +
                        thr + a);
      }
    }
    add("QGr", std::move(specs));
  }
  {
    std::vector<std::string> specs;
    for (const char* sim : {"jaccard", "tfidf"}) {
      for (auto [tight, loose] :
           std::vector<std::pair<const char*, const char*>>{
               {"0.9", "0.8"}, {"0.8", "0.7"}, {"0.95", "0.85"},
               {"0.7", "0.6"}}) {
        specs.push_back(std::string("cath:sim=") + sim + ",loose=" + loose +
                        ",tight=" + tight + a);
      }
    }
    add("CaTh", std::move(specs));
  }
  {
    std::vector<std::string> specs;
    for (const char* sim : {"jaccard", "tfidf"}) {
      for (auto [n1, n2] : std::vector<std::pair<int, int>>{
               {10, 5}, {20, 10}, {5, 2}, {30, 15}}) {
        specs.push_back(std::string("cann:sim=") + sim + ",n1=" +
                        std::to_string(n1) + ",n2=" + std::to_string(n2) +
                        a);
      }
    }
    add("CaNN", std::move(specs));
  }
  {
    std::vector<std::string> stmt;
    std::vector<std::string> stmnn;
    for (int grid_size : {100, 1000}) {
      for (int dim : {15, 20}) {
        std::string tail = "grid=" + std::to_string(grid_size) +
                           ",dim=" + std::to_string(dim) + a;
        for (const char* thr : {"0.9", "0.85"}) {
          stmt.push_back(std::string("stmt:threshold=") + thr + "," + tail);
        }
        for (int nn : {5, 10}) {
          stmnn.push_back("stmnn:nn=" + std::to_string(nn) + "," + tail);
        }
      }
    }
    add("StMT", std::move(stmt));
    add("StMNN", std::move(stmnn));
  }
  {
    std::vector<std::string> sua;
    std::vector<std::string> suas;
    std::vector<std::string> rsua;
    for (int len : {3, 5}) {
      for (int max_block : {5, 10, 20}) {
        std::string tail = "min-suffix=" + std::to_string(len) +
                           ",max-block=" + std::to_string(max_block) + a;
        sua.push_back("sua:" + tail);
        suas.push_back("suas:" + tail);
        for (const char* sim : {"jaro_winkler", "edit"}) {
          for (const char* thr : {"0.8", "0.9"}) {
            rsua.push_back(std::string("rsua:sim=") + sim + ",threshold=" +
                           thr + "," + tail);
          }
        }
      }
    }
    add("SuA", std::move(sua));
    add("SuAS", std::move(suas));
    add("RSuA", std::move(rsua));
  }
  return grids;
}

}  // namespace sablock::bench

#endif  // SABLOCK_BENCH_BENCH_UTIL_H_
