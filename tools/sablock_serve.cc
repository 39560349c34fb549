// sablock_serve — run a long-lived candidate server over a Unix-domain
// socket, or talk to one as a client. The server holds a mutable Dataset
// plus an IncrementalIndex built from a registry spec string (the same
// grammar as batch techniques; see --list-indexes) and answers insert /
// query / progressive-query / remove / stats / metrics requests
// (length-prefixed frames; see README "Serving").
//
// Examples:
//   sablock_serve --socket=/tmp/sab.sock --preload=cora --records=1879
//                 --index "sa-lsh:k=4,l=12,q=4,domain=bib"
//   sablock_serve --socket=/tmp/sab.sock --snapshot=voters.sab
//                 --index "lsh:k=9,l=15,q=2,attrs=first_name+last_name"
//   sablock_serve --socket=/tmp/sab.sock --schema=authors,title
//                 --index "token-blocking:attrs=authors+title"
//   sablock_serve --client --socket=/tmp/sab.sock --stats
//   sablock_serve --client --socket=/tmp/sab.sock
//                 --insert "jane doe|entity resolution at scale"
//   sablock_serve --client --socket=/tmp/sab.sock
//                 --query "j doe|entity resolution"
//   sablock_serve --client --socket=/tmp/sab.sock --remove=7
// (each invocation is a single command line; shown wrapped for width)

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "data/cora_generator.h"
#include "data/voter_generator.h"
#include "engine/thread_pool.h"
#include "flags.h"
#include "index/index_registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/candidate_server.h"
#include "service/candidate_service.h"
#include "service/client.h"
#include "store/snapshot.h"

namespace {

using sablock::tools::Flags;

void PrintUsage() {
  std::printf(
      "usage: sablock_serve --list-indexes\n"
      "       sablock_serve --socket=PATH\n"
      "                     (--schema=a,b[,c...] |\n"
      "                      --preload=cora|voter [--records=N] |\n"
      "                      --snapshot=FILE.sab)\n"
      "                     [--index \"name:key=val,...\"]  (default sa-lsh)\n"
      "                     [--threads=N]   (connection worker pool)\n"
      "       sablock_serve --client --socket=PATH\n"
      "                     [--insert \"v1|v2|...\"]  (values in schema "
      "order)\n"
      "                     [--query \"v1|v2|...\"]\n"
      "                     [--query-progressive \"v1|v2|...\"\n"
      "                      [--budget \"pairs=N,seconds=S\"]]\n"
      "                     [--remove=ID]\n"
      "                     [--stats]\n"
      "\n"
      "The server indexes records incrementally: an insert is visible to\n"
      "the next query, no batch rebuild. --preload inserts a generated\n"
      "dataset before serving; --snapshot warm-starts from a .sab\n"
      "container (sablock_cli --save-snapshot) via one mmap instead of a\n"
      "CSV parse — the wall time to ready is exported as the\n"
      "snapshot_startup_micros gauge. On SIGINT/SIGTERM the server drains\n"
      "in-flight requests, dumps its final metrics snapshot to stderr\n"
      "(Prometheus text format) and exits 0, removing the socket file.\n"
      "--stats prints the request counters plus the server's live metrics\n"
      "snapshot (the wire STATS/metrics verb) in the same format.\n"
      "--query-progressive ranks candidates best-first (token-Jaccard\n"
      "score against the probe) and honors a --budget in the unified\n"
      "core::Budget grammar: pairs=N caps the comparisons returned,\n"
      "seconds=S deadlines the scoring loop. Empty budget = unlimited.\n");
}

void PrintIndexes() {
  std::printf("registered incremental indexes:\n\n");
  for (const sablock::api::BlockerInfo& info :
       sablock::index::IndexRegistry::Global().List()) {
    sablock::tools::PrintEntry(info, 16);
  }
  std::printf(
      "\nspec grammar matches the batch techniques: "
      "name[:key=val,...], list\nvalues joined with '+', e.g. "
      "\"lsh:k=4,l=12,q=4,attrs=authors+title\"\n");
}

/// Splits a '|'-separated value list into schema-ordered views.
std::vector<std::string> SplitValues(const std::string& joined) {
  return sablock::Split(joined, '|');
}

std::vector<std::string_view> AsViews(const std::vector<std::string>& v) {
  return {v.begin(), v.end()};
}

int RunClient(const Flags& flags) {
  // Checked before connecting: a malformed id never reaches the server.
  const int remove_id = flags.GetInt("remove", 0);
  const std::string socket_path = flags.Get("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "error: --client needs --socket=PATH\n");
    return 1;
  }
  sablock::service::CandidateClient client;
  sablock::Status s =
      sablock::service::CandidateClient::Connect(socket_path, &client);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }

  bool did_something = false;
  if (flags.Has("insert")) {
    did_something = true;
    std::vector<std::string> values = SplitValues(flags.Get("insert"));
    std::vector<std::string_view> views = AsViews(values);
    sablock::data::RecordId id = 0;
    s = client.Insert(views, &id);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("inserted record %u\n", id);
  }
  if (flags.Has("query")) {
    did_something = true;
    std::vector<std::string> values = SplitValues(flags.Get("query"));
    std::vector<std::string_view> views = AsViews(values);
    std::vector<sablock::data::RecordId> candidates;
    s = client.Query(views, &candidates);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("%zu candidate(s):", candidates.size());
    for (sablock::data::RecordId id : candidates) std::printf(" %u", id);
    std::printf("\n");
  }
  if (flags.Has("query-progressive")) {
    did_something = true;
    std::vector<std::string> values =
        SplitValues(flags.Get("query-progressive"));
    std::vector<std::string_view> views = AsViews(values);
    std::vector<std::pair<sablock::data::RecordId, double>> candidates;
    s = client.QueryProgressive(views, flags.Get("budget"), &candidates);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("%zu scored candidate(s), best first:\n", candidates.size());
    for (const auto& [id, score] : candidates) {
      std::printf("  %u  %.4f\n", id, score);
    }
  }
  if (flags.Has("remove")) {
    did_something = true;
    bool removed = false;
    s = client.Remove(static_cast<sablock::data::RecordId>(remove_id),
                      &removed);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("%s\n", removed ? "removed" : "not live (no-op)");
  }
  if (flags.Has("stats") || !did_something) {
    sablock::service::ServiceStats stats;
    s = client.Stats(&stats);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("index:   %s\n", stats.index_name.c_str());
    std::printf("records: %llu\n",
                static_cast<unsigned long long>(stats.records));
    std::printf("inserts: %llu\n",
                static_cast<unsigned long long>(stats.inserts));
    std::printf("queries: %llu\n",
                static_cast<unsigned long long>(stats.queries));
    std::printf("removes: %llu\n",
                static_cast<unsigned long long>(stats.removes));
    std::string prom;
    s = client.Metrics(&prom);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("\n%s", prom.c_str());
  }
  return 0;
}

int RunServer(const Flags& flags) {
  const std::string socket_path = flags.Get("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "error: --socket=PATH is required\n");
    return 1;
  }
  const int threads =
      flags.GetInt("threads", 4, 1, sablock::engine::ThreadPool::kMaxThreads);

  // Block the shutdown signals before any thread exists so every server
  // thread inherits the mask and the sigwait below is the only receiver.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  // Schema: explicit attribute list, or the generator's / snapshot's.
  sablock::data::Dataset preload;
  sablock::data::Schema schema;
  // Wall time from "start reading the snapshot" to "index is queryable",
  // exported as the snapshot_startup_micros gauge once the service is up.
  sablock::WallTimer startup_timer;
  bool from_snapshot = false;
  const std::string generate = flags.Get("preload");
  if (flags.Has("snapshot")) {
    if (!generate.empty() || flags.Has("schema")) {
      std::fprintf(stderr,
                   "error: --snapshot replaces --preload/--schema\n");
      return 1;
    }
    sablock::store::SnapshotInfo info;
    sablock::Status s = sablock::store::LoadSnapshot(
        flags.Get("snapshot"), {}, &preload, &info);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    from_snapshot = true;
    schema = preload.schema();
    std::printf("snapshot: %s — %llu records, %u attributes, "
                "%u feature section(s)\n",
                flags.Get("snapshot").c_str(),
                static_cast<unsigned long long>(info.records),
                info.attributes, info.feature_sections);
  } else if (!generate.empty()) {
    if (generate == "cora") {
      sablock::data::CoraGeneratorConfig config;
      config.num_records =
          static_cast<size_t>(flags.GetInt("records", 1879, 1));
      config.num_entities = std::max<size_t>(config.num_records / 10, 1);
      preload = GenerateCoraLike(config);
    } else if (generate == "voter") {
      sablock::data::VoterGeneratorConfig config;
      config.num_records =
          static_cast<size_t>(flags.GetInt("records", 30000, 1));
      preload = GenerateVoterLike(config);
    } else {
      std::fprintf(stderr, "error: --preload must be cora or voter\n");
      return 1;
    }
    schema = preload.schema();
  } else if (flags.Has("schema")) {
    std::vector<std::string> attrs =
        sablock::Split(flags.Get("schema"), ',');
    if (attrs.empty()) {
      std::fprintf(stderr, "error: --schema needs attribute names\n");
      return 1;
    }
    schema = sablock::data::Schema(std::move(attrs));
  } else {
    std::fprintf(stderr,
                 "error: pass --schema=a,b,... or --preload=cora|voter\n");
    return 1;
  }

  const std::string index_spec = flags.Get("index", "sa-lsh");
  std::unique_ptr<sablock::service::CandidateService> service;
  sablock::Status s = sablock::service::CandidateService::Make(
      schema, index_spec, &service);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    std::fprintf(stderr,
                 "hint: sablock_serve --list-indexes shows every index "
                 "and its parameters\n");
    return 1;
  }
  // One warm start for the snapshot and the generated records alike.
  if (!preload.empty()) service->Preload(preload);
  if (from_snapshot) {
    const int64_t micros =
        static_cast<int64_t>(startup_timer.Seconds() * 1e6);
    sablock::obs::MetricsRegistry::Global()
        .GetGauge("snapshot_startup_micros",
                  "wall micros from snapshot open to a queryable index")
        ->Set(micros);
    std::printf("warm start: %zu records indexed in %.3fs\n",
                preload.size(), static_cast<double>(micros) / 1e6);
  } else if (!preload.empty()) {
    std::printf("preloaded %zu %s-like records\n", preload.size(),
                generate.c_str());
  }

  sablock::service::CandidateServer server(service.get(), socket_path,
                                           threads);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("serving index '%s' on %s (%d worker thread(s))\n",
              index_spec.c_str(), socket_path.c_str(), threads);

  // Block until SIGINT/SIGTERM, then shut down cleanly: Stop() drains
  // in-flight requests (their responses still reach clients) before the
  // final metrics flush below, so the dump reflects every handled op.
  int sig = 0;
  sigwait(&set, &sig);
  std::printf("signal %d — shutting down\n", sig);
  server.Stop();
  std::string prom = sablock::obs::ToPrometheusText(
      sablock::obs::MetricsRegistry::Global().Snapshot());
  std::fputs(prom.c_str(), stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = sablock::tools::ParseFlags(
      argc, argv,
      {"help", "list-indexes", "socket", "schema", "preload", "records",
       "snapshot", "index", "threads", "client", "insert", "query",
       "query-progressive", "budget", "remove", "stats"});
  if (flags.Has("help") || argc == 1) {
    PrintUsage();
    return 0;
  }
  if (flags.Has("list-indexes")) {
    PrintIndexes();
    return 0;
  }
  if (flags.Has("client")) return RunClient(flags);
  return RunServer(flags);
}
