// serve-mix-cora: a closed loop against an in-process CandidateServer.
//
// Each pass sets the server up from the Cora .sab snapshot (load, Make,
// Preload, Start — the set-up a restarted server pays), then two client
// connections each run a seeded op list — 70% Query, 20% Insert of a
// held-out record, 10% QueryProgressive pairs=50 — sending the next
// request only when the previous answer arrived. Inserts take the
// service's exclusive lock beside the readers' shared side.
//
// After the loop, one thread checks the final state in process: the
// record count and the candidate total of a fixed 500-probe pass. Both
// depend only on which records were inserted, never on how the two
// clients interleaved, so every pass of a run must agree.

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/hashing.h"
#include "common/random.h"
#include "data/csv.h"
#include "e2e.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "service/candidate_server.h"
#include "service/candidate_service.h"
#include "service/client.h"
#include "store/snapshot.h"

namespace sablock::e2e {
namespace {

constexpr char kServeIndex[] = "sa-lsh:k=4,l=12,q=4,w=5,mode=or,domain=bib";
constexpr int kServerThreads = 2;
constexpr int kClients = 2;
constexpr uint64_t kProgressivePairs = 50;
constexpr size_t kCheckProbes = 500;
/// Single-call latency probes of the traced run.
constexpr size_t kLayerProbes = 1000;

enum class OpKind { kQuery, kInsert, kProgressive };

struct Op {
  OpKind kind = OpKind::kQuery;
  /// Probe: a served record id. Insert: a held-out row.
  data::RecordId record = 0;
};

/// Client `client`'s op list: exact 70/20/10 counts in a seeded order.
/// Client c inserts held-out rows c, c + kClients, c + 2·kClients, ...
std::vector<Op> ClientOps(uint64_t seed, int client, size_t ops,
                          size_t served, size_t heldout) {
  Rng rng(Mix64(seed) ^ Mix64(static_cast<uint64_t>(client) + 1));
  const size_t inserts = ops / 5;
  const size_t progressive = ops / 10;
  SABLOCK_CHECK(inserts * kClients <= heldout);
  std::vector<Op> list;
  list.reserve(ops);
  for (size_t j = 0; j < inserts; ++j) {
    list.push_back({OpKind::kInsert,
                    static_cast<data::RecordId>(client + kClients * j)});
  }
  for (size_t j = inserts; j < ops; ++j) {
    list.push_back({j < inserts + progressive ? OpKind::kProgressive
                                              : OpKind::kQuery,
                    static_cast<data::RecordId>(rng.UniformIndex(served))});
  }
  rng.Shuffle(&list);
  return list;
}

struct Latencies {
  std::vector<double> query;
  std::vector<double> insert;
  std::vector<double> progressive;

  void Append(const Latencies& other) {
    query.insert(query.end(), other.query.begin(), other.query.end());
    insert.insert(insert.end(), other.insert.begin(), other.insert.end());
    progressive.insert(progressive.end(), other.progressive.begin(),
                       other.progressive.end());
  }
  std::vector<double>& Of(OpKind kind) {
    return kind == OpKind::kQuery    ? query
           : kind == OpKind::kInsert ? insert
                                     : progressive;
  }
};

bool BestFirst(const std::vector<std::pair<data::RecordId, double>>& got) {
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i - 1].second < got[i].second) return false;
  }
  return got.size() <= kProgressivePairs;
}

/// Runs one client's op list over its own connection; returns the number
/// of failed ops and leaves the per-op latencies in `latencies`.
uint64_t RunClient(const std::string& socket, bool traced,
                   const std::vector<Op>& ops, const data::Dataset& served,
                   const data::Dataset& heldout, std::latch& start,
                   Latencies* latencies, double* busy_s) {
  service::CandidateClient client;
  Status connected = service::CandidateClient::Connect(socket, &client);
  client.EnableTracing(traced);
  start.arrive_and_wait();
  if (!connected.ok()) return ops.size();

  uint64_t failed = 0;
  std::vector<data::RecordId> candidates;
  std::vector<std::pair<data::RecordId, double>> scored;
  const std::string budget = "pairs=" + std::to_string(kProgressivePairs);
  for (const Op& op : ops) {
    WallTimer timer;
    bool ok = false;
    if (op.kind == OpKind::kInsert) {
      data::RecordId id = 0;
      ok = client.Insert(heldout.Values(op.record), &id).ok();
    } else if (op.kind == OpKind::kQuery) {
      ok = client.Query(served.Values(op.record), &candidates).ok();
    } else {
      ok = client.QueryProgressive(served.Values(op.record), budget, &scored)
               .ok() &&
           BestFirst(scored);
    }
    const double seconds = timer.Seconds();
    latencies->Of(op.kind).push_back(seconds);
    *busy_s += seconds;
    if (!ok) ++failed;
  }
  return failed;
}

/// A loaded, preloaded service: the server-side state of one pass.
struct Served {
  data::Dataset records;  // the snapshot, also the probe source
  std::unique_ptr<service::CandidateService> service;
};

Served LoadServed(const Options& options, Tracer* tracer) {
  Served out;
  Status s;
  Timed(tracer, "store.snapshot_load", [&] {
    s = store::LoadSnapshot(options.inputs + "/serve.sab", {}, &out.records);
  });
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  s = service::CandidateService::Make(out.records.schema(), kServeIndex,
                                      &out.service);
  SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
  Timed(tracer, "service.preload",
        [&] { out.service->Preload(out.records); });
  return out;
}

struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double client_busy_s = 0.0;  // client 0's summed request latency
  double rss_mb = 0.0;
  uint64_t records = 0;
  uint64_t probe_candidates = 0;
};

class ServeBench {
 public:
  ServeBench(const Options& options, Tracer* tracer, Result* result)
      : options_(options),
        tracer_(tracer),
        result_(result),
        socket_(options.inputs + "/serve-" + std::to_string(::getpid()) +
                ".sock") {
    Status s = data::ReadCsv(options.inputs + "/heldout.csv", "entity",
                             &heldout_);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    Rng rng(Mix64(options.seed) ^ 0x9b0be5ULL);
    for (size_t i = 0; i < kLayerProbes; ++i) {
      probes_.push_back(static_cast<data::RecordId>(
          rng.UniformIndex(options.sizes.serve_records)));
    }
    for (int c = 0; c < kClients; ++c) {
      ops_.push_back(ClientOps(options.seed, c, options.sizes.ops_per_client,
                               options.sizes.serve_records, heldout_.size()));
    }
  }

  PassResult Pass(bool traced, Latencies* latencies) {
    PassResult pass;
    ResetPeakRss();
    WallTimer setup;
    Served served = LoadServed(options_, tracer_);
    service::CandidateServer server(served.service.get(), socket_,
                                    kServerThreads);
    Status s = server.Start();
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    pass.setup_s = setup.Seconds();

    std::vector<Latencies> per_client(kClients);
    std::vector<uint64_t> failed(kClients, 0);
    std::vector<double> busy(kClients, 0.0);
    std::latch start(kClients + 1);
    {
      ScopedSpan span(tracer_, traced ? "request.pass_traced"
                                      : "request.pass");
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          failed[c] = RunClient(socket_, traced, ops_[c], served.records,
                                heldout_, start, &per_client[c], &busy[c]);
        });
      }
      start.arrive_and_wait();
      WallTimer wall;
      for (std::thread& t : clients) t.join();
      pass.run_s = wall.Seconds();
    }
    server.Stop();
    for (int c = 0; c < kClients; ++c) {
      latencies->Append(per_client[c]);
      result_->attempted += ops_[c].size();
      result_->failed += failed[c];
    }
    pass.client_busy_s = busy[0];

    pass.records = served.service->stats().records;
    for (size_t i = 0; i < kCheckProbes; ++i) {
      pass.probe_candidates +=
          served.service->Query(served.records.Values(probes_[i])).size();
    }
    pass.rss_mb = PeakRssMb();
    const uint64_t want_records =
        options_.sizes.serve_records +
        kClients * (options_.sizes.ops_per_client / 5);
    if (first_.records == 0) first_ = pass;
    result_->Attempt(pass.records == want_records &&
                     pass.probe_candidates == first_.probe_candidates);
    return pass;
  }

  /// The closed loop, repeated with a fresh set-up per pass. Traced runs
  /// alternate untraced and traced passes (client requests carry trace
  /// ids) and then probe each layer on its own.
  void Run() {
    result_->threads = kServerThreads;
    result_->connections = kClients;
    Latencies latencies;
    std::vector<PassResult> passes;
    std::vector<double> traced_run_s;
    WallTimer total;
    for (int rep = 0;
         rep < options_.sizes.min_reps || total.Seconds() < options_.seconds;
         ++rep) {
      passes.push_back(Pass(false, &latencies));
      if (tracer_ != nullptr) {
        Latencies ignored;
        traced_run_s.push_back(Pass(true, &ignored).run_s);
      }
    }
    std::vector<double> setup_s, run_s, rss_mb, coverage;
    for (const PassResult& pass : passes) {
      setup_s.push_back(pass.setup_s);
      run_s.push_back(pass.run_s);
      rss_mb.push_back(pass.rss_mb);
      coverage.push_back(pass.client_busy_s / pass.run_s);
    }
    std::fprintf(stderr, "%zu passes, median %.4f s\n", passes.size(),
                 Median(run_s));
    result_->Metric("setup_s", Median(setup_s), "s");
    result_->Metric("run_s", Median(run_s), "s");
    result_->Metric("peak_rss_mb", Median(rss_mb), "MiB");
    result_->checks.Set("final_records", first_.records);
    result_->checks.Set("probe_candidates", first_.probe_candidates);

    double total_run_s = 0.0;
    for (double seconds : run_s) total_run_s += seconds;
    const double ops = static_cast<double>(
        latencies.query.size() + latencies.insert.size() +
        latencies.progressive.size());
    result_->Metric("request.ops_per_s", ops / total_run_s, "1/s");
    result_->Metric("request.query_p50_us",
                    Percentile(latencies.query, 50) * 1e6, "us");
    result_->Metric("request.query_p99_us",
                    Percentile(latencies.query, 99) * 1e6, "us");
    result_->Metric("request.insert_p99_us",
                    Percentile(latencies.insert, 99) * 1e6, "us");
    result_->Metric("request.progressive_p99_us",
                    Percentile(latencies.progressive, 99) * 1e6, "us");
    if (tracer_ == nullptr) return;

    result_->Metric("store.snapshot_load_s",
                    MedianSpan(*tracer_, "store.snapshot_load"), "s");
    result_->Metric("service.preload_s",
                    MedianSpan(*tracer_, "service.preload"), "s");
    result_->Metric("trace.coverage", Median(coverage), "ratio");
    result_->Metric("trace.overhead_frac",
                    (Median(traced_run_s) - Median(run_s)) / Median(run_s),
                    "ratio");
    ProbeIndex();
    ProbeService();
    ProbeContention();
  }

 private:
  /// Direct IncrementalIndex calls on a private index.
  void ProbeIndex() {
    data::Dataset records;
    Status s = store::LoadSnapshot(options_.inputs + "/serve.sab", {},
                                   &records);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    std::unique_ptr<index::IncrementalIndex> idx;
    s = index::IndexRegistry::Global().Create(kServeIndex, &idx);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    index::LoadDataset(*idx, records);
    std::vector<double> query_s;
    double candidates = 0.0;
    for (data::RecordId id : probes_) {
      size_t found = 0;
      query_s.push_back(Timed(tracer_, "index.query", [&] {
        found = idx->Query(records.Values(id)).size();
      }));
      candidates += static_cast<double>(found);
    }
    std::vector<double> insert_s;
    for (data::RecordId row = 0; row < heldout_.size(); ++row) {
      insert_s.push_back(Timed(tracer_, "index.insert", [&] {
        idx->Insert(static_cast<data::RecordId>(records.size() + row),
                    heldout_.Values(row));
      }));
    }
    result_->Metric("index.query_us_p50", Median(query_s) * 1e6, "us");
    result_->Metric("index.insert_us_p50", Median(insert_s) * 1e6, "us");
    result_->Metric("index.candidates_per_query",
                    candidates / static_cast<double>(probes_.size()),
                    "count");
  }

  /// Single-thread in-process service calls, then the same queries over
  /// one socket connection.
  void ProbeService() {
    Served served = LoadServed(options_, nullptr);
    std::vector<double> query_s;
    std::vector<double> progressive_s;
    double scored = 0.0;
    double kept = 0.0;
    core::Budget budget;
    budget.pairs = kProgressivePairs;
    for (data::RecordId id : probes_) {
      const auto values = served.records.Values(id);
      size_t found = 0;
      query_s.push_back(Timed(tracer_, "service.query", [&] {
        found = served.service->Query(values).size();
      }));
      std::vector<service::CandidateService::ScoredCandidate> best;
      progressive_s.push_back(Timed(tracer_, "service.query_progressive", [&] {
        result_->Attempt(
            served.service->QueryProgressive(values, budget, &best).ok());
      }));
      scored += static_cast<double>(found);
      kept += static_cast<double>(best.size());
    }
    const double query_p50 = Median(query_s);
    const double progressive_p50 = Median(progressive_s);
    result_->Metric("service.query_us_p50", query_p50 * 1e6, "us");
    result_->Metric("service.progressive_us_p50", progressive_p50 * 1e6,
                    "us");
    result_->Metric("service.progressive_scoring_us_p50",
                    (progressive_p50 - query_p50) * 1e6, "us");
    result_->Metric("service.progressive_kept_ratio", kept / scored,
                    "ratio");

    service::CandidateServer server(served.service.get(), socket_,
                                    kServerThreads);
    Status s = server.Start();
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    service::CandidateClient client;
    s = service::CandidateClient::Connect(socket_, &client);
    SABLOCK_CHECK_MSG(s.ok(), s.message().c_str());
    std::vector<double> socket_s;
    std::vector<data::RecordId> candidates;
    for (data::RecordId id : probes_) {
      socket_s.push_back(Timed(tracer_, "protocol.query", [&] {
        result_->Attempt(
            client.Query(served.records.Values(id), &candidates).ok());
      }));
    }
    client.Close();
    server.Stop();
    result_->Metric("protocol.roundtrip_us_p50",
                    (Median(socket_s) - query_p50) * 1e6, "us");
  }

  /// The op mix straight on the service: one thread, then two threads
  /// sharing its lock. The p50 difference is what sharing costs.
  void ProbeContention() {
    auto mix_p50 = [&](int threads) {
      Served served = LoadServed(options_, nullptr);
      std::vector<std::vector<double>> op_s(threads);
      core::Budget budget;
      budget.pairs = kProgressivePairs;
      ScopedSpan span(tracer_, threads == 1 ? "service.mix_1thread"
                                            : "service.mix_2threads");
      std::vector<std::thread> workers;
      for (int c = 0; c < threads; ++c) {
        workers.emplace_back([&, c] {
          std::vector<service::CandidateService::ScoredCandidate> best;
          for (const Op& op : ops_[c]) {
            WallTimer timer;
            if (op.kind == OpKind::kInsert) {
              served.service->Insert(heldout_.Values(op.record));
            } else if (op.kind == OpKind::kQuery) {
              served.service->Query(served.records.Values(op.record));
            } else {
              served.service->QueryProgressive(
                  served.records.Values(op.record), budget, &best);
            }
            op_s[c].push_back(timer.Seconds());
          }
        });
      }
      for (std::thread& t : workers) t.join();
      std::vector<double> all;
      for (const auto& v : op_s) all.insert(all.end(), v.begin(), v.end());
      return Median(all);
    };
    const double one = mix_p50(1);
    const double two = mix_p50(kClients);
    result_->Metric("service.contention_us_p50", (two - one) * 1e6, "us");
  }

  const Options& options_;
  Tracer* tracer_;
  Result* result_;
  const std::string socket_;
  data::Dataset heldout_;
  std::vector<data::RecordId> probes_;
  std::vector<std::vector<Op>> ops_;
  PassResult first_;
};

}  // namespace

void RunServeMix(const Options& options, Tracer* tracer, Result* result) {
  ServeBench(options, tracer, result).Run();
}

}  // namespace sablock::e2e
