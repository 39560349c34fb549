// Tests for the serving layer: wire-protocol round trips, the in-process
// CandidateService (including progressive scoring against a string-set
// reference), the socket server/client end to end, and concurrent
// insert/query traffic (the case the TSan gate exercises; this test
// carries the `service` and `concurrency` ctest labels).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "collect_blocks.h"
#include "common/string_util.h"
#include "core/budget.h"
#include "core/domains.h"
#include "core/semhash.h"
#include "data/cora_generator.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "index/lsh_index.h"
#include "obs/span.h"
#include "service/candidate_server.h"
#include "service/candidate_service.h"
#include "service/client.h"
#include "service/protocol.h"

namespace sablock::service {
namespace {

using Ids = std::vector<data::RecordId>;

std::vector<std::string_view> Row(const std::vector<std::string>& values) {
  return {values.begin(), values.end()};
}

data::Schema TwoAttrSchema() { return data::Schema({"name", "city"}); }

std::unique_ptr<CandidateService> MakeTokenService() {
  std::unique_ptr<CandidateService> service;
  Status s = CandidateService::Make(
      TwoAttrSchema(), "token-blocking:attrs=name+city", &service);
  EXPECT_TRUE(s.ok()) << s.message();
  return service;
}

/// Reference scoring: the normalized token set of a row, and the Jaccard
/// of two such sets, computed over strings. QueryProgressive scores over
/// interned token ids and must reproduce these doubles bit for bit.
std::set<std::string> TokenSet(std::span<const std::string_view> values) {
  std::set<std::string> tokens;
  for (std::string_view value : values) {
    for (std::string& token : SplitWords(NormalizeForMatching(value))) {
      tokens.insert(std::move(token));
    }
  }
  return tokens;
}

double TokenJaccard(const std::set<std::string>& probe,
                    const std::set<std::string>& row) {
  if (probe.empty() || row.empty()) return 0.0;
  size_t common = 0;
  for (const std::string& token : probe) common += row.count(token);
  size_t unioned = probe.size() + row.size() - common;
  return unioned > 0
             ? static_cast<double>(common) / static_cast<double>(unioned)
             : 0.0;
}

using Scored = std::vector<CandidateService::ScoredCandidate>;

/// True if `got` is ordered best first, ties by ascending id.
bool BestFirst(const Scored& got) {
  for (size_t i = 1; i < got.size(); ++i) {
    const auto& a = got[i - 1];
    const auto& b = got[i];
    if (a.score < b.score || (a.score == b.score && a.id >= b.id)) {
      return false;
    }
  }
  return true;
}

/// A per-test socket path under /tmp (sun_path is length-limited, so no
/// build-tree paths).
std::string TestSocketPath(const std::string& tag) {
  return "/tmp/sablock-test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

TEST(WireProtocolTest, WriterReaderRoundTrip) {
  WireWriter w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.Str("hello");
  w.Str("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.U8(), 7u);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.Finished());
}

TEST(WireProtocolTest, ShortPayloadLatchesNotOk) {
  WireWriter w;
  w.U32(5);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_EQ(r.U64(), 0u);  // under-run: zeros from here on
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.Finished());
}

TEST(WireProtocolTest, TrailingBytesAreNotFinished) {
  WireWriter w;
  w.U8(1);
  w.U8(2);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U8(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.Finished());  // one byte unread
}

TEST(CandidateServiceTest, InsertQueryRemoveStats) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  std::vector<std::string> b = {"Bob Smith", "Paris"};
  EXPECT_EQ(service->Insert(Row(a)), 0u);
  EXPECT_EQ(service->Insert(Row(b)), 1u);

  std::vector<std::string> probe = {"Eve Smith", "Oslo"};
  EXPECT_EQ(service->Query(Row(probe)), (Ids{0, 1}));

  EXPECT_TRUE(service->Remove(0));
  EXPECT_FALSE(service->Remove(0));
  EXPECT_EQ(service->Query(Row(probe)), (Ids{1}));

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_FALSE(stats.index_name.empty());
}

TEST(CandidateServiceTest, IndexesArenaCopiesNotCallerBuffers) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  {
    // Values live in a scope that ends before the query: the service
    // must have copied them into its dataset.
    std::vector<std::string> tmp = {"Carol Jones", "Lisbon"};
    service->Insert(Row(tmp));
  }
  std::vector<std::string> probe = {"Carol", ""};
  EXPECT_EQ(service->Query(Row(probe)), (Ids{0}));
}

TEST(CandidateServerTest, EndToEndOverSocket) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("e2e"), 2);
  ASSERT_TRUE(server.Start().ok());

  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());

  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  std::vector<std::string> b = {"Bob Smith", "Paris"};
  data::RecordId id = 99;
  ASSERT_TRUE(client.Insert(Row(a), &id).ok());
  EXPECT_EQ(id, 0u);
  ASSERT_TRUE(client.Insert(Row(b), &id).ok());
  EXPECT_EQ(id, 1u);

  std::vector<std::string> probe = {"Eve Smith", "Oslo"};
  Ids candidates;
  ASSERT_TRUE(client.Query(Row(probe), &candidates).ok());
  EXPECT_EQ(candidates, (Ids{0, 1}));

  const std::vector<std::vector<std::string>> probes = {
      {"X Smith", ""}, {"", "Berlin"}, {"Z", "Y"}};
  const std::vector<Ids> expected = {{0, 1}, {0}, {}};
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(client.Query(Row(probes[i]), &candidates).ok());
    EXPECT_EQ(candidates, expected[i]) << i;
  }

  bool removed = false;
  ASSERT_TRUE(client.Remove(0, &removed).ok());
  EXPECT_TRUE(removed);
  ASSERT_TRUE(client.Remove(0, &removed).ok());
  EXPECT_FALSE(removed);

  ServiceStats stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.removes, 1u);  // only the successful removal counts

  client.Close();
  server.Stop();
}

TEST(CandidateServerTest, MetricsVerbReturnsPrometheusText) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("metrics"), 2);
  ASSERT_TRUE(server.Start().ok());

  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());

  // Touch the service so the per-op and per-index families exist.
  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  data::RecordId id = 0;
  ASSERT_TRUE(client.Insert(Row(a), &id).ok());
  Ids candidates;
  ASSERT_TRUE(client.Query(Row(a), &candidates).ok());

  std::string text;
  Status s = client.Metrics(&text);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_NE(text.find("# TYPE service_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("service_requests{op=\"insert\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE service_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE index_query_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("service_inflight_requests"), std::string::npos);

  client.Close();
  server.Stop();
}

TEST(CandidateServerTest, TracedRequestsCarryTheClientTraceId) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("traced"), 2);
  ASSERT_TRUE(server.Start().ok());

  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());
  client.EnableTracing(true);

  std::vector<std::string> a = {"Alice Smith", "Berlin"};
  data::RecordId id = 0;
  ASSERT_TRUE(client.Insert(Row(a), &id).ok());
  const obs::TraceId trace = client.last_trace_id();
  EXPECT_NE(trace, 0u);

  // The server recorded a `service.request` span under the client's id
  // (same process here, so the global tracer is shared).
  std::vector<obs::SpanRecord> spans =
      obs::Tracer::Global().ForTrace(trace);
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().name, "service.request");

  // Subsequent traced requests mint fresh ids on the same connection.
  Ids candidates;
  ASSERT_TRUE(client.Query(Row(a), &candidates).ok());
  EXPECT_NE(client.last_trace_id(), trace);

  client.Close();
  server.Stop();
}

TEST(CandidateServerTest, WrongArityIsAnErrorResponseNotADisconnect) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("arity"), 1);
  ASSERT_TRUE(server.Start().ok());
  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());

  std::vector<std::string> short_row = {"only-one-value"};
  data::RecordId id = 0;
  Status s = client.Insert(Row(short_row), &id);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(client.connected());  // server kept the connection

  // The same connection still serves well-formed requests.
  std::vector<std::string> ok_row = {"Alice", "Berlin"};
  ASSERT_TRUE(client.Insert(Row(ok_row), &id).ok());
  EXPECT_EQ(id, 0u);
  server.Stop();
}

TEST(CandidateServerTest, StopUnblocksConnectedClients) {
  std::unique_ptr<CandidateService> service = MakeTokenService();
  CandidateServer server(service.get(), TestSocketPath("stop"), 1);
  ASSERT_TRUE(server.Start().ok());
  CandidateClient client;
  ASSERT_TRUE(
      CandidateClient::Connect(server.socket_path(), &client).ok());
  server.Stop();
  ServiceStats stats;
  EXPECT_FALSE(client.Stats(&stats).ok());  // connection was shut down
  server.Stop();                            // idempotent
}

TEST(CandidateServerConcurrencyTest, ParallelInsertAndQueryClients) {
  // Several client threads hammer one server with interleaved inserts
  // and queries; under --tsan this is the serving stack's data-race
  // gate. Correctness check: every insert got a distinct id and the
  // final record count matches.
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(CandidateService::Make(TwoAttrSchema(),
                                     "lsh:k=2,l=4,q=2,attrs=name+city",
                                     &service)
                  .ok());
  CandidateServer server(service.get(), TestSocketPath("conc"), 4);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::vector<data::RecordId>> ids_per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CandidateClient client;
      if (!CandidateClient::Connect(server.socket_path(), &client).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::vector<std::string> row = {
            "name" + std::to_string(t) + "x" + std::to_string(i % 7),
            "city" + std::to_string(i % 3)};
        data::RecordId id = 0;
        if (!client.Insert(Row(row), &id).ok()) {
          failures.fetch_add(1);
          return;
        }
        ids_per_thread[t].push_back(id);
        Ids candidates;
        if (!client.Query(Row(row), &candidates).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  std::vector<data::RecordId> all;
  for (const auto& ids : ids_per_thread) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(),
            static_cast<size_t>(kThreads) * kOpsPerThread);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i);  // distinct, dense ids
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.records, all.size());
  server.Stop();
}

TEST(CandidateServiceTest, WarmServiceReproducesBatchBlocksViaEmit) {
  // The service's EmitBlocks is the index's — loading a generated
  // dataset through Insert matches index::LoadDataset output.
  data::CoraGeneratorConfig config;
  config.num_records = 120;
  config.num_entities = 12;
  config.seed = 42;
  data::Dataset dataset = GenerateCoraLike(config);

  const std::string spec = "token-blocking:attrs=authors+title";
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(
      CandidateService::Make(dataset.schema(), spec, &service).ok());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    service->Insert(dataset.Values(id));
  }
  core::BlockCollection via_service;
  service->EmitBlocks(via_service);

  std::unique_ptr<index::IncrementalIndex> direct;
  ASSERT_TRUE(index::IndexRegistry::Global().Create(spec, &direct).ok());
  index::LoadDataset(*direct, dataset);
  EXPECT_EQ(index::CanonicalBlockBytes(via_service),
            index::CanonicalBlockBytes(index::CollectBlocks(*direct)));
}

TEST(CandidateServiceTest, ProgressiveScoresEqualTheStringSetJaccard) {
  // Preloaded Cora-like rows plus inserted rows. The sor-a window is wider
  // than the store, so every live record is a candidate of every probe
  // and every probe is scored against every row.
  data::CoraGeneratorConfig config;
  config.num_records = 150;
  config.num_entities = 20;
  config.seed = 5;
  const data::Dataset cora = GenerateCoraLike(config);
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(CandidateService::Make(cora.schema(),
                                     "sor-a:window=1000,attrs=authors+title",
                                     &service)
                  .ok());
  ASSERT_EQ(service->Preload(cora), cora.size());

  // A row of the Cora schema (title, authors, journal, booktitle,
  // institution, publisher, year) from its leading values.
  auto wide = [&](std::vector<std::string> leading) {
    leading.resize(cora.schema().size());
    return leading;
  };
  std::vector<std::vector<std::string>> rows;  // every record, by id
  for (data::RecordId id = 0; id < cora.size(); ++id) {
    const std::span<const std::string_view> row = cora.Values(id);
    rows.emplace_back(row.begin(), row.end());
  }
  const std::vector<std::vector<std::string>> inserted = {
      wide({"Learning, Fast & Slow: A.I. (2nd ed.)", "SMITH, J.; Jones-Wu",
            "J. Mach. Learn.", "", "", "", "1999"}),
      wide({"learning fast learning SLOW", "smith j", "", "NIPS'98"}),
      wide({"Caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9", "",
            "\xff\xfe", "", "", "", ""}),
      wide({"", "", "", "", "", "", ""}),
      wide({"R2-D2 and C-3PO", "Lucas, G.", "", "", "", "", "1977"}),
  };
  for (const auto& row : inserted) {
    EXPECT_EQ(service->Insert(Row(row)), rows.size());
    rows.push_back(row);
  }

  std::vector<std::vector<std::string>> probes = {rows[0], rows[17],
                                                  rows[149]};
  probes.insert(probes.end(), inserted.begin(), inserted.end());
  probes.push_back(
      wide({"SMITH!! learning? zork", "Zork", "", "", "", "", "99"}));
  probes.push_back(wide({"qqzx vvkw qqzx", "xqj", "", "", "", "", "31337"}));
  probes.push_back(wide({"\xe2\x80\x94 ..."}));

  size_t zeros = 0;
  size_t ones = 0;
  size_t between = 0;
  for (const auto& probe : probes) {
    const std::set<std::string> probe_tokens = TokenSet(Row(probe));
    Scored got;
    ASSERT_TRUE(service->QueryProgressive(Row(probe), {}, &got).ok());
    ASSERT_EQ(got.size(), rows.size());
    EXPECT_TRUE(BestFirst(got));
    for (const auto& candidate : got) {
      const double want =
          TokenJaccard(probe_tokens, TokenSet(Row(rows[candidate.id])));
      EXPECT_EQ(candidate.score, want)
          << "probe '" << probe[0] << "' vs record " << candidate.id;
      if (want == 0.0) {
        ++zeros;
      } else if (want == 1.0) {
        ++ones;
      } else {
        ++between;
      }
    }
  }
  // The probes exercise every kind of score.
  EXPECT_GT(zeros, 0u);
  EXPECT_GT(ones, 0u);
  EXPECT_GT(between, 0u);
}

TEST(CandidateServiceTest, ProgressiveOrderCapAndRejectedBudget) {
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(CandidateService::Make(TwoAttrSchema(),
                                     "sor-a:window=100,attrs=name", &service)
                  .ok());
  const std::vector<std::vector<std::string>> rows = {
      {"a b", ""}, {"a c", ""}, {"a b", "x"}, {"A-B", ""}, {"z", ""}};
  for (const auto& row : rows) service->Insert(Row(row));

  // Scores 1, 1/3, 2/3, 1, 0: the two 1s tie and come out by id.
  const std::vector<std::string> probe = {"b a", ""};
  Scored got;
  ASSERT_TRUE(service->QueryProgressive(Row(probe), {}, &got).ok());
  ASSERT_EQ(got.size(), 5u);
  const std::vector<data::RecordId> order = {0, 3, 2, 1, 4};
  const std::vector<double> scores = {1.0, 1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0};
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, order[i]) << i;
    EXPECT_EQ(got[i].score, scores[i]) << i;
  }

  // The pairs cap keeps the best-first prefix.
  core::Budget budget;
  budget.pairs = 3;
  ASSERT_TRUE(service->QueryProgressive(Row(probe), budget, &got).ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_EQ(got[1].id, 3u);
  EXPECT_EQ(got[2].id, 2u);

  // recall-target needs ground truth: rejected, with nothing returned.
  core::Budget recall;
  recall.recall_target = 0.9;
  Status s = service->QueryProgressive(Row(probe), recall, &got);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("recall-target"), std::string::npos);
  EXPECT_TRUE(got.empty());
}

TEST(CandidateServiceTest, PreloadThenEmitMatchesLoadDataset) {
  data::CoraGeneratorConfig config;
  config.num_records = 200;
  config.num_entities = 25;
  config.seed = 9;
  const data::Dataset dataset = GenerateCoraLike(config);
  for (const std::string spec :
       {"token-blocking:attrs=authors+title",
        "sor-a:window=3,attrs=authors+title",
        "lsh:k=4,l=12,q=4,attrs=authors+title",
        "sa-lsh:k=4,l=12,q=4,w=5,mode=or,domain=bib"}) {
    std::unique_ptr<CandidateService> service;
    ASSERT_TRUE(
        CandidateService::Make(dataset.schema(), spec, &service).ok());
    ASSERT_EQ(service->Preload(dataset), dataset.size());
    core::BlockCollection via_service;
    service->EmitBlocks(via_service);

    std::unique_ptr<index::IncrementalIndex> direct;
    ASSERT_TRUE(index::IndexRegistry::Global().Create(spec, &direct).ok());
    index::LoadDataset(*direct, dataset);
    const core::BlockCollection want = index::CollectBlocks(*direct);
    EXPECT_GT(want.NumBlocks(), 0u) << spec;
    EXPECT_EQ(index::CanonicalBlockBytes(via_service),
              index::CanonicalBlockBytes(want))
        << spec;
  }
}

TEST(CandidateServiceConcurrencyTest, RacingInsertsAndProgressiveQueries) {
  // Four threads interleave inserts and progressive queries on one
  // service. Which candidates a query sees depends on the interleaving,
  // but each score depends only on the probe and the (immutable) row, so
  // every answer is checked against the reference once all threads end.
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(CandidateService::Make(TwoAttrSchema(),
                                     "token-blocking:attrs=name+city",
                                     &service)
                  .ok());
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  auto row_of = [](int t, int i) {
    return std::vector<std::string>{
        "Name" + std::to_string(t) + " x" + std::to_string(i % 7) + " Common",
        "City-" + std::to_string(i % 3)};
  };
  struct Answer {
    std::vector<std::string> probe;
    Scored got;
  };
  std::vector<std::vector<Answer>> answers(kThreads);
  std::vector<std::vector<std::pair<data::RecordId, int>>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::Budget budget;
      budget.pairs = 20;
      for (int i = 0; i < kOpsPerThread; ++i) {
        ids[t].push_back({service->Insert(Row(row_of(t, i))), i});
        Answer answer;
        answer.probe = row_of((t + 1) % kThreads, i + 1);
        EXPECT_TRUE(service
                        ->QueryProgressive(Row(answer.probe), budget,
                                           &answer.got)
                        .ok());
        answers[t].push_back(std::move(answer));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::vector<std::string>> rows(
      static_cast<size_t>(kThreads) * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [id, i] : ids[t]) rows.at(id) = row_of(t, i);
  }
  size_t scored = 0;
  for (const auto& per_thread : answers) {
    for (const Answer& answer : per_thread) {
      EXPECT_LE(answer.got.size(), 20u);
      EXPECT_TRUE(BestFirst(answer.got));
      const std::set<std::string> probe = TokenSet(Row(answer.probe));
      for (const auto& candidate : answer.got) {
        EXPECT_EQ(candidate.score,
                  TokenJaccard(probe, TokenSet(Row(rows.at(candidate.id)))));
        ++scored;
      }
    }
  }
  EXPECT_GT(scored, 0u);
}

TEST(CandidateServiceConcurrencyTest, QueriesRaceCompactionsAndGrowth) {
  // Two writers insert Cora rows into an sa-lsh service while two readers
  // query it, plainly and progressively. The rows outnumber the index's
  // compaction floor several times, and only the second half carries the
  // booktitle and institution concepts, so the semantic dimension grows
  // after the index has compacted: both rebuilds run while readers wait
  // on the shared lock. Under --tsan this is their data-race gate.
  data::CoraGeneratorConfig config;
  config.num_records = 1200;
  config.num_entities = 150;
  config.seed = 23;
  const data::Dataset generated = GenerateCoraLike(config);
  data::Dataset rows(generated.schema());
  const int journal = rows.schema().IndexOf("journal");
  for (data::RecordId id = 0; id < generated.size(); ++id) {
    std::vector<std::string> values(generated.Values(id).begin(),
                                    generated.Values(id).end());
    if (id < generated.size() / 2) {
      // Table 1's pattern 4: a journal only, one concept.
      values[static_cast<size_t>(rows.schema().IndexOf("booktitle"))].clear();
      values[static_cast<size_t>(rows.schema().IndexOf("institution"))]
          .clear();
      if (values[static_cast<size_t>(journal)].empty()) {
        values[static_cast<size_t>(journal)] = "jair";
      }
    }
    rows.AddRow(Row(values));
  }
  ASSERT_GT(rows.size(), 4 * index::LshIndex::kCompactionFloor);
  const core::Domain bib = core::MakeBibliographicDomain();
  const core::Taxonomy& taxonomy = bib.semantics->taxonomy();
  const std::vector<std::vector<core::ConceptId>> zetas =
      bib.semantics->InterpretAll(rows);
  const std::vector<std::vector<core::ConceptId>> first_half(
      zetas.begin(), zetas.begin() + static_cast<std::ptrdiff_t>(
                                         rows.size() / 2));
  ASSERT_LT(core::SemhashEncoder::Build(taxonomy, first_half).dimension(),
            core::SemhashEncoder::Build(taxonomy, zetas).dimension());
  const std::string spec = "sa-lsh:k=3,l=6,q=3,w=3,mode=or,domain=bib";
  std::unique_ptr<CandidateService> service;
  ASSERT_TRUE(CandidateService::Make(rows.schema(), spec, &service).ok());

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kMinReads = 150;
  std::vector<data::RecordId> row_of(rows.size());  // id -> inserted row
  std::atomic<int> writers_done{0};
  std::atomic<int> bad_answers{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (auto row = static_cast<data::RecordId>(w); row < rows.size();
           row += kWriters) {
        row_of.at(service->Insert(rows.Values(row))) = row;
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      core::Budget budget;
      budget.pairs = 20;
      Scored scored;
      for (int i = 0; writers_done.load() < kWriters || i < kMinReads; ++i) {
        const auto probe =
            static_cast<data::RecordId>((i * 37 + r * 11) % rows.size());
        const Ids ids = service->Query(rows.Values(probe));
        EXPECT_TRUE(service->QueryProgressive(rows.Values(probe), budget,
                                              &scored)
                        .ok());
        // Read after the answers: every id they name was inserted by then.
        const uint64_t inserted = service->stats().inserts;
        Ids progressive;
        for (const auto& candidate : scored) {
          progressive.push_back(candidate.id);
        }
        std::sort(progressive.begin(), progressive.end());
        const bool sorted_distinct =
            std::adjacent_find(ids.begin(), ids.end(),
                               std::greater_equal<>()) == ids.end() &&
            std::adjacent_find(progressive.begin(), progressive.end()) ==
                progressive.end();
        const bool inserted_ids =
            (ids.empty() || ids.back() < inserted) &&
            (progressive.empty() || progressive.back() < inserted);
        if (!sorted_distinct || !inserted_ids) bad_answers.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_answers.load(), 0);

  // One thread inserting the same rows in id order reaches the same state.
  std::unique_ptr<index::IncrementalIndex> serial;
  ASSERT_TRUE(index::IndexRegistry::Global().Create(spec, &serial).ok());
  ASSERT_TRUE(serial->Bind(rows.schema()).ok());
  for (data::RecordId id = 0; id < rows.size(); ++id) {
    serial->Insert(id, rows.Values(row_of[id]));
  }
  core::BlockCollection emitted;
  service->EmitBlocks(emitted);
  EXPECT_GT(emitted.NumBlocks(), 0u);
  EXPECT_EQ(AsVectors(emitted), AsVectors(index::CollectBlocks(*serial)));
  for (data::RecordId row = 0; row < rows.size(); ++row) {
    ASSERT_EQ(service->Query(rows.Values(row)),
              serial->Query(rows.Values(row)))
        << "row " << row;
  }
}

}  // namespace
}  // namespace sablock::service
