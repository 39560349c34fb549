// Serving-path latency: drives insert/query mixes through the
// CandidateService (and, for one index, through the full Unix-socket
// server + client stack) and reports per-operation p50/p99 latency and
// sustained QPS — the RunResult `latency` extension of the JSON schema.
//
// Every registered incremental index runs in-process over the same
// Cora-like dataset: all records inserted one by one (the "insert" row),
// then a fixed probe set queried (the "query" row) and queried again
// through QueryProgressive with pairs=50 (the "progressive" row). The
// "preload" row times fresh services' warm starts: each repetition runs
// PreloadsFor(records) back-to-back Preloads of the whole dataset, a count
// that depends on the record count only, is recorded in `values` and
// lifts the row above bench_compare.py's 10 ms TIME floor at --quick. The
// last preloaded service is probed again: its candidate total must equal
// the insert-built service's, or the scenario fails. The
// token index additionally runs through the socket so the framing +
// dispatch overhead is visible as the delta to its in-process rows.
// Candidate totals and a digest of the progressive (id, score) lists are
// deterministic (generator + spec seeded) and recorded in `values`, so
// bench_compare.py gates the scores exactly; the scenario fails if the
// socket path returns different candidates than the in-process path.
//
// Flags: --records=N (default 2000 / quick 300) inserted records,
// --queries=N (default 500 / quick 150) probes.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "core/block_sink.h"
#include "core/budget.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "scenarios.h"
#include "service/candidate_server.h"
#include "service/candidate_service.h"
#include "service/client.h"

namespace sablock::bench {
namespace {

/// Progressive queries keep at most this many scored candidates.
constexpr uint64_t kProgressivePairs = 50;

/// Back-to-back Preloads per timed repetition of a preload row: enough
/// that each repetition indexes about 9,000 records (30 Preloads at the
/// quick 300 records, 5 at the default 2,000).
size_t PreloadsFor(size_t records) { return CallsPerRepetition(records, 9000); }

enum class Phase { kInsert, kQuery, kProgressive, kPreload };

struct PhaseResult {
  report::LatencyStats latency;  // per-operation phases
  report::RepeatStats time;      // kPreload: `preloads` Preloads per repeat
  size_t preloads = 0;
  double total_candidates = 0.0;  // deterministic; 0 for insert phases
  // Progressive phases: digest of every returned (id, score) list, cut to
  // 53 bits so the JSON double holds it exactly.
  double scores_digest = 0.0;
};

/// Records one phase's row: its latency, or for kPreload its time.
void RecordLatency(report::BenchContext& ctx, const std::string& name,
                   const std::string& spec, const data::Dataset& dataset,
                   const PhaseResult& phase, Phase kind) {
  report::RunResult run;
  run.name = name;
  run.spec = spec;
  run.dataset = "cora-like";
  run.dataset_records = dataset.size();
  run.has_latency = kind != Phase::kPreload;
  run.latency = phase.latency;
  run.time = phase.time;
  if (kind != Phase::kInsert) {
    run.AddValue("total_candidates", phase.total_candidates);
  }
  if (kind == Phase::kProgressive) {
    run.AddValue("scores_digest", phase.scores_digest);
  }
  if (kind == Phase::kPreload) {
    run.AddValue("preloads", static_cast<double>(phase.preloads));
  }
  ctx.Record(std::move(run));
}

/// Inserts every record through the in-process service, timing each op.
PhaseResult InsertAll(service::CandidateService& service,
                      const data::Dataset& dataset) {
  PhaseResult out;
  std::vector<double> op_seconds;
  op_seconds.reserve(dataset.size());
  WallTimer wall;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    WallTimer op;
    service.Insert(dataset.Values(id));
    op_seconds.push_back(op.Seconds());
  }
  out.latency =
      report::SummarizeLatency(std::move(op_seconds), wall.Seconds());
  return out;
}

/// Queries `probes` records (cycling through the dataset), timing each.
PhaseResult QueryProbes(service::CandidateService& service,
                        const data::Dataset& dataset, size_t probes) {
  PhaseResult out;
  std::vector<double> op_seconds;
  op_seconds.reserve(probes);
  WallTimer wall;
  for (size_t i = 0; i < probes; ++i) {
    data::RecordId id = static_cast<data::RecordId>(i % dataset.size());
    WallTimer op;
    std::vector<data::RecordId> candidates =
        service.Query(dataset.Values(id));
    op_seconds.push_back(op.Seconds());
    out.total_candidates += static_cast<double>(candidates.size());
  }
  out.latency =
      report::SummarizeLatency(std::move(op_seconds), wall.Seconds());
  return out;
}

/// Fresh services' warm starts: each repetition makes PreloadsFor(records)
/// services and times their Preloads of the whole dataset back to back;
/// the last preloaded service then answers the QueryProbes probes.
PhaseResult PreloadProbes(const report::BenchContext& ctx,
                          const std::string& spec,
                          const data::Dataset& dataset, size_t probes) {
  PhaseResult out;
  out.preloads = PreloadsFor(dataset.size());
  std::vector<std::unique_ptr<service::CandidateService>> preloaded(
      out.preloads);
  out.time = ctx.TimeRepeats([&](int) {
    for (auto& service : preloaded) {
      Status s =
          service::CandidateService::Make(dataset.schema(), spec, &service);
      SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    }
    WallTimer timer;
    for (auto& service : preloaded) service->Preload(dataset);
    return timer.Seconds();
  });
  out.total_candidates =
      QueryProbes(*preloaded.back(), dataset, probes).total_candidates;
  return out;
}

/// Progressive queries over the same probes as QueryProbes (pairs=50),
/// timing each and folding the returned lists into one digest.
PhaseResult ProgressiveProbes(service::CandidateService& service,
                              const data::Dataset& dataset, size_t probes) {
  PhaseResult out;
  core::Budget budget;
  budget.pairs = kProgressivePairs;
  std::vector<double> op_seconds;
  op_seconds.reserve(probes);
  std::vector<service::CandidateService::ScoredCandidate> best;
  uint64_t digest = 0;
  WallTimer wall;
  for (size_t i = 0; i < probes; ++i) {
    data::RecordId id = static_cast<data::RecordId>(i % dataset.size());
    WallTimer op;
    Status s = service.QueryProgressive(dataset.Values(id), budget, &best);
    op_seconds.push_back(op.Seconds());
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    digest = HashCombine(digest, best.size());
    for (const auto& candidate : best) {
      digest = HashCombine(digest, candidate.id);
      digest = HashCombine(digest, std::bit_cast<uint64_t>(candidate.score));
    }
    out.total_candidates += static_cast<double>(best.size());
  }
  out.latency =
      report::SummarizeLatency(std::move(op_seconds), wall.Seconds());
  out.scores_digest = static_cast<double>(digest >> 11);
  return out;
}

int RunServiceLatency(report::BenchContext& ctx) {
  const size_t records = ctx.SizeOr("records", 2000, 300);
  const size_t probes = ctx.SizeOr("queries", 500, 150);

  data::Dataset dataset = MakePaperCora(records);

  // The paper's Cora attributes; l reduced so the quick suite stays fast
  // on one core while every index family is still exercised.
  const std::vector<std::pair<std::string, std::string>> specs = {
      {"token", "token-blocking:attrs=authors+title"},
      {"sor-a", "sor-a:window=3,attrs=authors+title"},
      {"lsh", "lsh:k=4,l=12,q=4,attrs=authors+title"},
      {"sa-lsh", "sa-lsh:k=4,l=12,q=4,w=5,mode=or,domain=bib"},
  };

  std::printf("Service latency: %zu inserts + %zu queries + %zu "
              "progressive queries (pairs=%llu) per index (Cora-like "
              "records)\n\n",
              records, probes, probes,
              static_cast<unsigned long long>(kProgressivePairs));
  eval::TablePrinter table({"index", "path", "op", "ops", "p50(us)",
                            "p99(us)", "qps"});
  auto add_row = [&table](const std::string& index, const char* path,
                          const char* op,
                          const report::LatencyStats& stats) {
    table.AddRow({index, path, op, std::to_string(stats.ops),
                  FormatDouble(stats.p50_us, 1),
                  FormatDouble(stats.p99_us, 1),
                  FormatDouble(stats.qps, 0)});
  };

  double token_inproc_candidates = -1.0;
  bool preload_matches = true;
  for (const auto& [label, spec] : specs) {
    std::unique_ptr<service::CandidateService> svc;
    Status s =
        service::CandidateService::Make(dataset.schema(), spec, &svc);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());

    PhaseResult insert = InsertAll(*svc, dataset);
    PhaseResult query = QueryProbes(*svc, dataset, probes);
    PhaseResult progressive = ProgressiveProbes(*svc, dataset, probes);
    if (label == "token") {
      token_inproc_candidates = query.total_candidates;
    }
    add_row(label, "inproc", "insert", insert.latency);
    add_row(label, "inproc", "query", query.latency);
    add_row(label, "inproc", "progressive", progressive.latency);
    RecordLatency(ctx, "inproc/" + label + "/insert", spec, dataset,
                  insert, Phase::kInsert);
    RecordLatency(ctx, "inproc/" + label + "/query", spec, dataset, query,
                  Phase::kQuery);
    RecordLatency(ctx, "inproc/" + label + "/progressive", spec, dataset,
                  progressive, Phase::kProgressive);
    PhaseResult preload = PreloadProbes(ctx, spec, dataset, probes);
    preload_matches = preload_matches &&
                      preload.total_candidates == query.total_candidates;
    RecordLatency(ctx, "inproc/" + label + "/preload", spec, dataset,
                  preload, Phase::kPreload);
    // A preload row's ops are the records one repetition indexes, and its
    // qps column reads records indexed per second.
    const size_t indexed = dataset.size() * preload.preloads;
    table.AddRow({label, "inproc", "preload", std::to_string(indexed), "-",
                  "-",
                  FormatDouble(static_cast<double>(indexed) /
                                   preload.time.min_s,
                               0)});
  }

  // Socket path: the token index again, but through the full server
  // stack — framing, dispatch, and one client connection.
  const std::string socket_spec = specs.front().second;
  std::unique_ptr<service::CandidateService> svc;
  Status s =
      service::CandidateService::Make(dataset.schema(), socket_spec, &svc);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  const std::string socket_path =
      "/tmp/sablock-bench-" + std::to_string(::getpid()) + ".sock";
  service::CandidateServer server(svc.get(), socket_path, 2);
  s = server.Start();
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  service::CandidateClient client;
  s = service::CandidateClient::Connect(socket_path, &client);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  // Traced requests: every socket op carries a trace id, so the server's
  // `service.request` spans from this phase are correlatable.
  client.EnableTracing(true);

  PhaseResult sock_insert;
  {
    std::vector<double> op_seconds;
    op_seconds.reserve(dataset.size());
    WallTimer wall;
    for (data::RecordId id = 0; id < dataset.size(); ++id) {
      data::RecordId assigned = 0;
      WallTimer op;
      s = client.Insert(dataset.Values(id), &assigned);
      op_seconds.push_back(op.Seconds());
      SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
      SABLOCK_CHECK(assigned == id);
    }
    sock_insert.latency =
        report::SummarizeLatency(std::move(op_seconds), wall.Seconds());
  }
  PhaseResult sock_query;
  {
    std::vector<double> op_seconds;
    op_seconds.reserve(probes);
    std::vector<data::RecordId> candidates;
    WallTimer wall;
    for (size_t i = 0; i < probes; ++i) {
      data::RecordId id = static_cast<data::RecordId>(i % dataset.size());
      WallTimer op;
      s = client.Query(dataset.Values(id), &candidates);
      op_seconds.push_back(op.Seconds());
      SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
      sock_query.total_candidates +=
          static_cast<double>(candidates.size());
    }
    sock_query.latency =
        report::SummarizeLatency(std::move(op_seconds), wall.Seconds());
  }
  client.Close();
  server.Stop();

  add_row("token", "socket", "insert", sock_insert.latency);
  add_row("token", "socket", "query", sock_query.latency);
  RecordLatency(ctx, "socket/token/insert", socket_spec, dataset,
                sock_insert, Phase::kInsert);
  RecordLatency(ctx, "socket/token/query", socket_spec, dataset,
                sock_query, Phase::kQuery);
  table.Print();

  // Cold/warm batch pass over the same dataset through a staged
  // pipeline. The cold run builds the token feature column (a
  // featurestore miss), the warm run is served from the cache (a hit) —
  // together with the socket phase above this deterministically
  // populates the metric families the acceptance check below (and
  // bench_compare.py's hit-rate gate) reads. purge with
  // max_size=records passes every block through, so the per-stage
  // counters equal the generator's output.
  {
    const std::string pipeline_spec =
        "token-blocking:attrs=authors+title | purge:max_size=" +
        std::to_string(records);
    std::unique_ptr<pipeline::PipelinedBlocker> blocker;
    s = pipeline::Build(pipeline_spec, &blocker);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    std::printf("\nBatch pipeline (cold vs warm feature cache): %s\n",
                pipeline_spec.c_str());
    for (const char* phase : {"cold", "warm"}) {
      core::PairCountingSink counting;
      WallTimer timer;
      blocker->Run(dataset, counting);
      const double seconds = timer.Seconds();
      std::printf("  %-4s %.3fs  %llu blocks\n", phase, seconds,
                  static_cast<unsigned long long>(counting.num_blocks()));
      report::RunResult run;
      run.name = std::string("batch/pipeline/") + phase;
      run.spec = pipeline_spec;
      run.dataset = "cora-like";
      run.dataset_records = dataset.size();
      run.time = report::SummarizeSeconds({seconds});
      run.AddValue("blocks", static_cast<double>(counting.num_blocks()));
      run.AddValue("comparisons",
                   static_cast<double>(counting.comparisons()));
      ctx.Record(std::move(run));
    }
  }

  const bool candidates_match =
      sock_query.total_candidates == token_inproc_candidates;
  std::printf("\nsocket/in-process candidate agreement: %s\n",
              candidates_match ? "PASS" : "FAIL");
  std::printf("preload/insert candidate agreement: %s\n",
              preload_matches ? "PASS" : "FAIL");

  // Acceptance self-check: the scenario must leave the process registry
  // with a live feature-cache hit, per-stage block counters and a
  // request-latency distribution — a run whose snapshot lacks them is a
  // broken observability build, not a slow one.
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  bool obs_ok = true;
  auto check = [&obs_ok](const char* what, bool ok) {
    std::printf("observability: %-42s %s\n", what, ok ? "PASS" : "FAIL");
    if (!ok) obs_ok = false;
  };
  const obs::SampleSnapshot* hits =
      snapshot.Find("featurestore_hits", "token");
  check("featurestore_hits{column=token} > 0",
        hits != nullptr && hits->counter > 0);
  const obs::SampleSnapshot* purge =
      snapshot.Find("blocks_emitted", "purge");
  check("blocks_emitted{stage=purge} > 0",
        purge != nullptr && purge->counter > 0);
  const obs::SampleSnapshot* requests =
      snapshot.Find("service_request_seconds", "query");
  check("service_request_seconds{op=query} populated",
        requests != nullptr && requests->count > 0 &&
            !requests->buckets.empty());

  return candidates_match && preload_matches && obs_ok ? 0 : 1;
}

}  // namespace

void RegisterServiceLatency(report::BenchRegistry& registry) {
  registry.Register(
      {"service_latency",
       "candidate-server insert/query/progressive latency (p50/p99/QPS), "
       "in-process and over the Unix socket",
       {"records", "queries"}},
      RunServiceLatency);
}

}  // namespace sablock::bench
