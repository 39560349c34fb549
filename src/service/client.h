#ifndef SABLOCK_SERVICE_CLIENT_H_
#define SABLOCK_SERVICE_CLIENT_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/record.h"
#include "obs/span.h"
#include "service/protocol.h"

namespace sablock::service {

/// Blocking client for the candidate server: one Unix-socket connection,
/// one in-flight request at a time. Not thread-safe; use one client per
/// thread (the server handles each connection independently).
class CandidateClient {
 public:
  CandidateClient() = default;
  ~CandidateClient();

  CandidateClient(CandidateClient&& other) noexcept;
  CandidateClient& operator=(CandidateClient&& other) noexcept;
  CandidateClient(const CandidateClient&) = delete;
  CandidateClient& operator=(const CandidateClient&) = delete;

  /// Connects to a server's socket path.
  static Status Connect(const std::string& socket_path,
                        CandidateClient* out);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Inserts one record; returns the server-assigned record id.
  Status Insert(std::span<const std::string_view> values,
                data::RecordId* id);

  /// Candidate ids for one probe.
  Status Query(std::span<const std::string_view> values,
               std::vector<data::RecordId>* candidates);

  /// Budget-aware query: scored candidates best-first under `budget_spec`
  /// (core::Budget grammar, e.g. "pairs=100"; empty = unlimited). Each
  /// result is (record id, serving-side priority score).
  Status QueryProgressive(
      std::span<const std::string_view> values, const std::string& budget_spec,
      std::vector<std::pair<data::RecordId, double>>* candidates);

  /// Un-indexes a record; `*removed` reports whether it was live.
  Status Remove(data::RecordId id, bool* removed);

  Status Stats(ServiceStats* stats);

  /// The server process's metrics snapshot in Prometheus text format.
  Status Metrics(std::string* text);

  /// When on, every request carries a fresh trace id (kTracedOpBit), so
  /// the server's spans for it are correlatable via last_trace_id().
  /// Off by default — traced opcodes are rejected by pre-tracing servers.
  void EnableTracing(bool on) { tracing_ = on; }

  /// Trace id stamped on the most recent traced request (0 before one).
  obs::TraceId last_trace_id() const { return last_trace_; }

 private:
  /// Writes the opcode (with the trace prefix when tracing) into `w`.
  void BeginRequest(Op op, WireWriter* w);

  /// One request/response round trip; decodes an error response into the
  /// returned status and leaves `*reader` positioned after the ok byte.
  Status Call(const WireWriter& request, std::string* response);

  int fd_ = -1;
  bool tracing_ = false;
  obs::TraceId last_trace_ = 0;
};

}  // namespace sablock::service

#endif  // SABLOCK_SERVICE_CLIENT_H_
