#include "service/candidate_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "obs/export.h"
#include "obs/span.h"

namespace sablock::service {

namespace {

/// Error response with a message.
std::string ErrorResponse(std::string_view message) {
  WireWriter w;
  w.U8(kStatusError);
  w.Str(message);
  return w.bytes();
}

/// Per-op request counter + latency histogram, one pair per wire verb
/// (plus a bucket for garbage opcodes). Resolved on first use, then the
/// dispatch path only touches atomics.
struct OpMetrics {
  obs::Counter* requests;
  obs::Histogram* seconds;

  explicit OpMetrics(const char* op_name) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    requests = registry.GetCounter(
        "service_requests", "requests handled by the candidate server", "op",
        op_name);
    seconds = registry.GetHistogram(
        "service_request_seconds", "candidate-server request handling time",
        obs::Histogram::LatencyBuckets(), "op", op_name);
  }
};

OpMetrics& MetricsFor(uint8_t op) {
  static OpMetrics& insert = *new OpMetrics("insert");
  static OpMetrics& query = *new OpMetrics("query");
  static OpMetrics& stats = *new OpMetrics("stats");
  static OpMetrics& remove = *new OpMetrics("remove");
  static OpMetrics& metrics = *new OpMetrics("metrics");
  static OpMetrics& query_progressive = *new OpMetrics("query_progressive");
  static OpMetrics& unknown = *new OpMetrics("unknown");
  switch (static_cast<Op>(op)) {
    case Op::kInsert: return insert;
    case Op::kQuery: return query;
    case Op::kStats: return stats;
    case Op::kRemove: return remove;
    case Op::kMetrics: return metrics;
    case Op::kQueryProgressive: return query_progressive;
  }
  return unknown;
}

/// Reads one schema-aligned value list; false (with an untouched reader
/// error state) on malformed input or arity mismatch.
bool ReadValueList(WireReader& r, size_t arity,
                   std::vector<std::string_view>* values) {
  uint32_t count = r.U32();
  if (!r.ok() || count != arity) return false;
  values->clear();
  values->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    values->push_back(r.Str());
  }
  return r.ok();
}

}  // namespace

CandidateServer::CandidateServer(CandidateService* service,
                                 std::string socket_path, int num_threads)
    : service_(service),
      socket_path_(std::move(socket_path)),
      inflight_(obs::MetricsRegistry::Global().GetGauge(
          "service_inflight_requests",
          "requests currently being handled by the candidate server")),
      pool_(num_threads) {
  SABLOCK_CHECK(service_ != nullptr);
}

CandidateServer::~CandidateServer() { Stop(); }

Status CandidateServer::Start() {
  SABLOCK_CHECK_MSG(!running_, "server already started");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return Status::Error("socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Error("socket() failed");
  ::unlink(socket_path_.c_str());  // stale file from a crashed server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error("bind() failed for " + socket_path_);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
    return Status::Error("listen() failed for " + socket_path_);
  }
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void CandidateServer::Stop() {
  if (!running_.exchange(false)) return;
  // Wake the accept thread: shutdown makes the blocking accept() fail.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    // Drain, don't sever: shutting down only the read side makes each
    // connection's next ReadFrame see EOF, while a response the worker is
    // mid-writing for an in-flight request still reaches the client.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : connections_) ::shutdown(fd, SHUT_RD);
  }
  pool_.Wait();
  ::unlink(socket_path_.c_str());
}

void CandidateServer::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_) return;
      continue;  // transient (e.g. ECONNABORTED)
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.insert(fd);
    }
    pool_.Submit([this, fd] { ServeConnection(fd); });
  }
}

void CandidateServer::ServeConnection(int fd) {
  std::string request;
  while (ReadFrame(fd, &request)) {
    inflight_->Add(1);
    std::string response = Handle(request);
    inflight_->Sub(1);
    if (!WriteFrame(fd, response)) break;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.erase(fd);
  }
  ::close(fd);
}

std::string CandidateServer::Handle(std::string_view request) const {
  WireReader r(request);
  uint8_t op = r.U8();
  if (!r.ok()) return ErrorResponse("empty request");
  obs::TraceId trace = 0;
  if (op & kTracedOpBit) {
    op &= static_cast<uint8_t>(~kTracedOpBit);
    trace = r.U64();
    if (!r.ok()) return ErrorResponse("traced request without trace id");
  }
  obs::ObsSpan span("service.request", trace);
  OpMetrics& op_metrics = MetricsFor(op);
  WallTimer timer;
  const size_t arity = service_->schema().size();
  std::vector<std::string_view> values;
  WireWriter w;

  std::string response = [&]() -> std::string {
  switch (static_cast<Op>(op)) {
    case Op::kInsert: {
      if (!ReadValueList(r, arity, &values) || !r.Finished()) {
        return ErrorResponse("malformed insert (expected " +
                             std::to_string(arity) + " values)");
      }
      data::RecordId id = service_->Insert(values);
      w.U8(kStatusOk);
      w.U32(id);
      return w.bytes();
    }
    case Op::kQuery: {
      if (!ReadValueList(r, arity, &values) || !r.Finished()) {
        return ErrorResponse("malformed query (expected " +
                             std::to_string(arity) + " values)");
      }
      std::vector<data::RecordId> ids = service_->Query(values);
      w.U8(kStatusOk);
      w.U32(static_cast<uint32_t>(ids.size()));
      for (data::RecordId id : ids) w.U32(id);
      return w.bytes();
    }
    case Op::kStats: {
      if (!r.Finished()) return ErrorResponse("trailing stats bytes");
      ServiceStats stats = service_->stats();
      w.U8(kStatusOk);
      w.U64(stats.records);
      w.U64(stats.inserts);
      w.U64(stats.queries);
      w.U64(stats.removes);
      w.Str(stats.index_name);
      return w.bytes();
    }
    case Op::kRemove: {
      uint32_t id = r.U32();
      if (!r.Finished()) return ErrorResponse("malformed remove");
      bool removed = service_->Remove(id);
      w.U8(kStatusOk);
      w.U8(removed ? 1 : 0);
      return w.bytes();
    }
    case Op::kMetrics: {
      if (!r.Finished()) return ErrorResponse("trailing metrics bytes");
      w.U8(kStatusOk);
      w.Str(obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot()));
      return w.bytes();
    }
    case Op::kQueryProgressive: {
      if (!ReadValueList(r, arity, &values)) {
        return ErrorResponse("malformed progressive query (expected " +
                             std::to_string(arity) + " values)");
      }
      std::string budget_spec(r.Str());
      if (!r.ok() || !r.Finished()) {
        return ErrorResponse("malformed progressive query budget");
      }
      core::Budget budget;
      Status status = core::Budget::Parse(budget_spec, &budget);
      if (!status.ok()) return ErrorResponse(status.message());
      std::vector<CandidateService::ScoredCandidate> candidates;
      status = service_->QueryProgressive(values, budget, &candidates);
      if (!status.ok()) return ErrorResponse(status.message());
      w.U8(kStatusOk);
      w.U32(static_cast<uint32_t>(candidates.size()));
      for (const CandidateService::ScoredCandidate& c : candidates) {
        w.U32(c.id);
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(c.score));
        std::memcpy(&bits, &c.score, sizeof(bits));
        w.U64(bits);
      }
      return w.bytes();
    }
  }
  return ErrorResponse("unknown opcode " + std::to_string(op));
  }();

  op_metrics.seconds->Observe(timer.Seconds());
  op_metrics.requests->Add(1);
  return response;
}

}  // namespace sablock::service
