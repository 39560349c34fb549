#include "service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace sablock::service {

namespace {

void AppendValueList(std::span<const std::string_view> values,
                     WireWriter* w) {
  w->U32(static_cast<uint32_t>(values.size()));
  for (std::string_view v : values) w->Str(v);
}

Status ReadIdList(WireReader& r, std::vector<data::RecordId>* ids) {
  uint32_t count = r.U32();
  if (!r.ok()) return Status::Error("short candidate list");
  ids->clear();
  ids->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ids->push_back(r.U32());
  }
  if (!r.ok()) return Status::Error("short candidate list");
  return Status::Ok();
}

}  // namespace

CandidateClient::~CandidateClient() { Close(); }

CandidateClient::CandidateClient(CandidateClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

CandidateClient& CandidateClient::operator=(
    CandidateClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void CandidateClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status CandidateClient::Connect(const std::string& socket_path,
                                CandidateClient* out) {
  out->Close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::Error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Error("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Error("connect() failed for " + socket_path);
  }
  out->fd_ = fd;
  return Status::Ok();
}

void CandidateClient::BeginRequest(Op op, WireWriter* w) {
  if (!tracing_) {
    w->U8(static_cast<uint8_t>(op));
    return;
  }
  last_trace_ = obs::NextTraceId();
  w->U8(static_cast<uint8_t>(op) | kTracedOpBit);
  w->U64(last_trace_);
}

Status CandidateClient::Call(const WireWriter& request,
                             std::string* response) {
  if (fd_ < 0) return Status::Error("client not connected");
  if (!WriteFrame(fd_, request.bytes())) {
    Close();
    return Status::Error("connection lost while sending");
  }
  if (!ReadFrame(fd_, response)) {
    Close();
    return Status::Error("connection lost while receiving");
  }
  return Status::Ok();
}

/// Consumes the status byte; on an error response, decodes the message.
static Status CheckResponse(WireReader& r) {
  uint8_t status = r.U8();
  if (!r.ok()) return Status::Error("empty response");
  if (status == kStatusOk) return Status::Ok();
  std::string_view message = r.Str();
  return Status::Error("server error: " + std::string(message));
}

Status CandidateClient::Insert(std::span<const std::string_view> values,
                               data::RecordId* id) {
  WireWriter w;
  BeginRequest(Op::kInsert, &w);
  AppendValueList(values, &w);
  std::string response;
  Status s = Call(w, &response);
  if (!s.ok()) return s;
  WireReader r(response);
  s = CheckResponse(r);
  if (!s.ok()) return s;
  *id = r.U32();
  if (!r.Finished()) return Status::Error("malformed insert response");
  return Status::Ok();
}

Status CandidateClient::Query(std::span<const std::string_view> values,
                              std::vector<data::RecordId>* candidates) {
  WireWriter w;
  BeginRequest(Op::kQuery, &w);
  AppendValueList(values, &w);
  std::string response;
  Status s = Call(w, &response);
  if (!s.ok()) return s;
  WireReader r(response);
  s = CheckResponse(r);
  if (!s.ok()) return s;
  s = ReadIdList(r, candidates);
  if (!s.ok()) return s;
  if (!r.Finished()) return Status::Error("malformed query response");
  return Status::Ok();
}

Status CandidateClient::QueryProgressive(
    std::span<const std::string_view> values, const std::string& budget_spec,
    std::vector<std::pair<data::RecordId, double>>* candidates) {
  WireWriter w;
  BeginRequest(Op::kQueryProgressive, &w);
  AppendValueList(values, &w);
  w.Str(budget_spec);
  std::string response;
  Status s = Call(w, &response);
  if (!s.ok()) return s;
  WireReader r(response);
  s = CheckResponse(r);
  if (!s.ok()) return s;
  uint32_t count = r.U32();
  candidates->clear();
  candidates->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    data::RecordId id = r.U32();
    uint64_t bits = r.U64();
    double score;
    static_assert(sizeof(bits) == sizeof(score));
    std::memcpy(&score, &bits, sizeof(score));
    candidates->emplace_back(id, score);
  }
  if (!r.Finished()) {
    return Status::Error("malformed progressive query response");
  }
  return Status::Ok();
}

Status CandidateClient::Remove(data::RecordId id, bool* removed) {
  WireWriter w;
  BeginRequest(Op::kRemove, &w);
  w.U32(id);
  std::string response;
  Status s = Call(w, &response);
  if (!s.ok()) return s;
  WireReader r(response);
  s = CheckResponse(r);
  if (!s.ok()) return s;
  *removed = r.U8() != 0;
  if (!r.Finished()) return Status::Error("malformed remove response");
  return Status::Ok();
}

Status CandidateClient::Stats(ServiceStats* stats) {
  WireWriter w;
  BeginRequest(Op::kStats, &w);
  std::string response;
  Status s = Call(w, &response);
  if (!s.ok()) return s;
  WireReader r(response);
  s = CheckResponse(r);
  if (!s.ok()) return s;
  stats->records = r.U64();
  stats->inserts = r.U64();
  stats->queries = r.U64();
  stats->removes = r.U64();
  stats->index_name = std::string(r.Str());
  if (!r.Finished()) return Status::Error("malformed stats response");
  return Status::Ok();
}

Status CandidateClient::Metrics(std::string* text) {
  WireWriter w;
  BeginRequest(Op::kMetrics, &w);
  std::string response;
  Status s = Call(w, &response);
  if (!s.ok()) return s;
  WireReader r(response);
  s = CheckResponse(r);
  if (!s.ok()) return s;
  *text = std::string(r.Str());
  if (!r.Finished()) return Status::Error("malformed metrics response");
  return Status::Ok();
}

}  // namespace sablock::service
