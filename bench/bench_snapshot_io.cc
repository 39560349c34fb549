// Snapshot IO: the persistence axis of the suite. Measures what the
// `.sab` container buys on the startup path — CSV parse + FeatureStore
// build versus one mmap'd cold load — and proves the loaded path is not
// a different code path in disguise: every registry technique must emit
// byte-identical blocks on a snapshot-loaded dataset and on the parsed
// dataset it was written from.
//
// Rows (the RunResult `io` extension of the JSON schema):
//   csv_parse            — ReadCsv alone, back to back enough times per
//                          repetition to clear the 10 ms TIME floor
//                          (values: parses, csv_bytes; the table prints
//                          MB/s)
//   parse_build          — ReadCsv + first technique run (cold features)
//   snapshot/compressed  — cold LoadSnapshot, file size, first query
//   snapshot/raw         — the same without section compression
//   identity/registry    — deterministic: how many of the registry's
//                          golden specs matched blocks across the
//                          parse/load boundary (must be all)
//
// The scenario FAILS unless the cold snapshot load is >= 10x faster
// than parse+build (the ISSUE's acceptance bar) and every identity
// check passes.
//
// Flags: --records=N (default 20000 / quick 2000) voter-like records.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/block_sink.h"
#include "data/csv.h"
#include "scenarios.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace sablock::bench {
namespace {

// The registry techniques of the feature-golden suite (same specs as
// tests/feature_golden_test.cc): one representative per family, pinned
// seeds. The identity phase runs each against the parsed and the
// snapshot-loaded dataset and demands identical blocks.
const char* const kRegistrySpecs[] = {
    "tblo:attrs=authors+title",
    "sor-a:window=3,attrs=authors+title",
    "sor-ii:window=3,attrs=authors+title",
    "sor-mp:window=3,attrs=authors+title",
    "asor:sim=jaro_winkler,threshold=0.8,max-block=50,attrs=authors+title",
    "qgram:q=2,threshold=0.8,max-keys=64,attrs=title",
    "sua:min-suffix=4,max-block=20,attrs=authors+title",
    "suas:min-suffix=4,max-block=20,attrs=title",
    "rsua:min-suffix=4,max-block=20,sim=jaro_winkler,threshold=0.9,"
    "attrs=authors+title",
    "stmt:threshold=0.9,grid=100,dim=15,seed=73,attrs=authors+title",
    "stmnn:nn=5,grid=100,dim=15,seed=73,attrs=authors+title",
    "cath:sim=jaccard,loose=0.4,tight=0.8,seed=31,attrs=authors+title",
    "cann:sim=tfidf,n1=10,n2=5,seed=31,attrs=authors+title",
    "meta:weighting=cbs,pruning=wep,max-block=500,attrs=authors+title",
    "lsh:k=2,l=8,q=3,seed=7,attrs=authors+title",
    "sa-lsh:k=2,l=8,q=3,seed=7,w=5,mode=or,domain=bib,sem-seed=11,"
    "attrs=authors+title",
    "mp-lsh:k=2,l=8,q=3,seed=7,probes=2,attrs=authors+title",
    "forest:k=2,l=8,q=3,seed=7,depth=10,max-block=25,attrs=authors+title",
    "harra:k=2,l=8,q=3,seed=7,merge-threshold=0.5,iterations=2,"
    "attrs=authors+title",
};

std::string TmpPath(const char* suffix) {
  return "/tmp/sablock-snapshot-io-" + std::to_string(::getpid()) + suffix;
}

int RunSnapshotIo(report::BenchContext& ctx) {
  const size_t records = ctx.SizeOr("records", 20000, 2000);
  const std::string csv_path = TmpPath(".csv");
  const std::string sab_path = TmpPath(".sab");
  const std::string raw_path = TmpPath("-raw.sab");

  // ---- corpus: voter-like records on disk as CSV --------------------
  data::Dataset base = MakePaperVoter(records);
  Status s = data::WriteCsv(csv_path, base, "entity");
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());

  // The serving workload whose startup we are accelerating: the paper's
  // voter operating point. Running it warms exactly the feature columns
  // the snapshot must carry.
  std::unique_ptr<core::BlockingTechnique> workload =
      FromSpec("lsh:k=9,l=15,q=2,seed=7,attrs=first_name+last_name");

  // ---- baseline: CSV parse + cold feature build + first answer ------
  data::Dataset parsed;  // last repetition's parse, reused below
  core::BlockCollection parsed_blocks;
  report::RepeatStats parse_stats = ctx.TimeRepeats([&](int) {
    data::Dataset d;
    WallTimer timer;
    Status st = data::ReadCsv(csv_path, "entity", &d);
    SABLOCK_CHECK_MSG(st.ok(), st.message().c_str());
    core::BlockCollection blocks;
    workload->Run(d, blocks);
    double seconds = timer.Seconds();
    parsed = std::move(d);
    parsed_blocks = std::move(blocks);
    return seconds;
  });

  // ---- write snapshots from the run-warmed dataset ------------------
  // `parsed`'s cache holds exactly the columns the workload touched.
  store::WriteInfo compressed_info;
  store::WriteOptions options;
  s = store::WriteSnapshot(sab_path, parsed, options, &compressed_info);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  store::WriteInfo raw_info;
  options.compress = false;
  s = store::WriteSnapshot(raw_path, parsed, options, &raw_info);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());

  // ---- cold loads + first query over the loaded dataset -------------
  struct SnapRow {
    const char* name;
    const std::string* path;
    const store::WriteInfo* info;
    report::RepeatStats load_stats;
    double first_query_s = 0.0;
    core::BlockCollection blocks;
  };
  SnapRow rows[] = {
      {"snapshot/compressed", &sab_path, &compressed_info, {}, 0.0, {}},
      {"snapshot/raw", &raw_path, &raw_info, {}, 0.0, {}}};
  for (SnapRow& row : rows) {
    data::Dataset loaded;
    row.load_stats = ctx.TimeRepeats([&](int) {
      data::Dataset d;
      WallTimer timer;
      Status st = store::LoadSnapshot(*row.path, {}, &d);
      SABLOCK_CHECK_MSG(st.ok(), st.message().c_str());
      double seconds = timer.Seconds();
      loaded = std::move(d);
      return seconds;
    });
    WallTimer first_query;
    workload->Run(loaded, row.blocks);
    row.first_query_s = first_query.Seconds();
  }

  // ---- identity across the parse/load boundary ----------------------
  // Phase A: the workload's blocks from the loaded datasets must equal
  // the parsed path's blocks exactly.
  bool workload_identical = true;
  for (const SnapRow& row : rows) {
    if (row.blocks != parsed_blocks) {
      workload_identical = false;
      std::printf("FAIL: %s workload blocks differ from parsed path\n",
                  row.name);
    }
  }

  // Phase B: every registry technique over the golden Cora corpus. The
  // snapshot here is written feature-less (each side builds its own
  // cache) — this isolates the dataset-core roundtrip; the feature
  // roundtrip is pinned byte-for-byte by snapshot_roundtrip_test.
  size_t identical_specs = 0;
  {
    data::Dataset cora = MakePaperCora(400, 42);
    const std::string cora_path = TmpPath("-cora.sab");
    store::WriteOptions core_only;
    core_only.include_features = false;
    s = store::WriteSnapshot(cora_path, cora, core_only);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    data::Dataset cora_loaded;
    s = store::LoadSnapshot(cora_path, {}, &cora_loaded);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    for (const char* spec : kRegistrySpecs) {
      std::unique_ptr<core::BlockingTechnique> t = FromSpec(spec);
      core::BlockCollection from_parsed = RunStreaming(*t, cora);
      core::BlockCollection from_loaded = RunStreaming(*t, cora_loaded);
      if (from_parsed == from_loaded) {
        ++identical_specs;
      } else {
        std::printf("FAIL: blocks differ after snapshot roundtrip: %s\n",
                    spec);
      }
    }
    std::remove(cora_path.c_str());
  }
  const size_t total_specs =
      sizeof(kRegistrySpecs) / sizeof(kRegistrySpecs[0]);

  // ---- the parse alone, after the gated rows -----------------------
  // 50 parses at the quick 2,000 records, 5 at the default 20,000.
  const size_t parses = CallsPerRepetition(records, 100000);
  const auto csv_bytes =
      static_cast<double>(std::filesystem::file_size(csv_path));
  report::RepeatStats csv_stats = ctx.TimeRepeats([&](int) {
    WallTimer timer;
    for (size_t i = 0; i < parses; ++i) {
      data::Dataset d;
      Status st = data::ReadCsv(csv_path, "entity", &d);
      SABLOCK_CHECK_MSG(st.ok(), st.message().c_str());
    }
    return timer.Seconds();
  });
  const double csv_mb_per_s =
      csv_stats.min_s > 0.0 ? parses * csv_bytes / csv_stats.min_s / 1e6 : 0.0;

  // ---- report -------------------------------------------------------
  const double speedup =
      rows[0].load_stats.min_s > 0.0
          ? parse_stats.min_s / rows[0].load_stats.min_s
          : 0.0;
  std::printf("Snapshot IO (%zu voter-like records, %d repeat(s))\n\n",
              records, ctx.repeat);
  eval::TablePrinter table(
      {"path", "bytes", "startup(s)", "first-query(s)"});
  table.AddRow({"csv parse", FormatDouble(csv_bytes, 0),
                FormatDouble(csv_stats.min_s / parses, 4), "-"});
  table.AddRow({"csv parse+build", "-", FormatDouble(parse_stats.min_s, 3),
                "(included)"});
  for (const SnapRow& row : rows) {
    table.AddRow({row.name,
                  std::to_string(row.info->file_bytes),
                  FormatDouble(row.load_stats.min_s, 3),
                  FormatDouble(row.first_query_s, 3)});
  }
  table.Print();
  std::printf("\ncsv parse: %.1f MB/s (%zu parse(s) per repetition)\n",
              csv_mb_per_s, parses);
  std::printf("cold compressed load speedup over parse+build: %.1fx "
              "(gate: >=10x) %s\n",
              speedup, speedup >= 10.0 ? "PASS" : "FAIL");
  std::printf("registry identity across roundtrip: %zu/%zu %s\n",
              identical_specs, total_specs,
              identical_specs == total_specs ? "PASS" : "FAIL");

  // ---- record -------------------------------------------------------
  {
    // values are compared exactly, so MB/s (a timing) is printed only.
    report::RunResult run;
    run.name = "csv_parse";
    run.dataset = "voter-like";
    run.dataset_records = base.size();
    run.time = csv_stats;
    run.AddValue("parses", static_cast<double>(parses));
    run.AddValue("csv_bytes", csv_bytes);
    ctx.Record(std::move(run));
  }
  {
    report::RunResult run;
    run.name = "parse_build";
    run.spec = "";
    run.dataset = "voter-like";
    run.dataset_records = base.size();
    run.time = parse_stats;
    ctx.Record(std::move(run));
  }
  for (const SnapRow& row : rows) {
    report::RunResult run;
    run.name = row.name;
    run.dataset = "voter-like";
    run.dataset_records = base.size();
    run.time = row.load_stats;
    run.has_io = true;
    run.io.file_bytes = row.info->file_bytes;
    run.io.cold_load_s = row.load_stats.min_s;
    run.io.first_query_s = row.first_query_s;
    run.AddValue("sections", static_cast<double>(row.info->sections));
    run.AddValue("feature_sections",
                 static_cast<double>(row.info->feature_sections));
    ctx.Record(std::move(run));
  }
  {
    report::RunResult run;
    run.name = "identity/registry";
    run.dataset = "cora-like";
    run.dataset_records = 400;
    run.AddValue("specs", static_cast<double>(total_specs));
    run.AddValue("identical", static_cast<double>(identical_specs));
    ctx.Record(std::move(run));
  }

  std::remove(csv_path.c_str());
  std::remove(sab_path.c_str());
  std::remove(raw_path.c_str());
  return speedup >= 10.0 && identical_specs == total_specs &&
                 workload_identical
             ? 0
             : 1;
}

}  // namespace

void RegisterSnapshotIo(report::BenchRegistry& registry) {
  registry.Register(
      {"snapshot_io",
       "`.sab` container cold start vs CSV parse + feature build: file "
       "size, mmap load and first-query time, registry block identity",
       {"records"}},
      RunSnapshotIo);
}

}  // namespace sablock::bench
