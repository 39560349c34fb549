#ifndef SABLOCK_SERVICE_PROTOCOL_H_
#define SABLOCK_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace sablock::service {

/// Wire protocol of the candidate server, shared by server and client.
///
/// Framing: every message (request or response) is one frame —
///
///   uint32 little-endian payload length | payload bytes
///
/// A request payload starts with a 1-byte opcode followed by the
/// operation body; a response payload starts with a 1-byte status code
/// (0 = ok, 1 = error). All integers are little-endian; strings and
/// attribute values are uint32-length-prefixed byte strings. Record-id
/// lists are a uint32 count followed by that many uint32 ids.
///
/// Tracing: a request whose opcode byte has kTracedOpBit set carries a
/// uint64 trace id between the opcode and the body. The server tags the
/// request's obs spans with it, so one id correlates client-side timing
/// with the server's span timeline. Untraced requests (bit clear) are
/// unchanged — old clients keep working.
///
/// Bodies (request -> ok-response):
///   kInsert:     value list            -> uint32 assigned record id
///   kQuery:      value list            -> record-id list
///   kStats:      (empty)               -> uint64 records, inserts,
///                                         queries, removes; index name
///   kRemove:     uint32 record id      -> uint8 removed (0/1)
///   kMetrics:    (empty)               -> string: the server process's
///                                         metrics snapshot in Prometheus
///                                         text exposition format (the
///                                         "STATS" verb of the CLI)
///   kQueryProgressive: value list, budget spec string (core::Budget
///                grammar, e.g. "pairs=100"; empty = unlimited)
///                                       -> uint32 count, count x
///                                         (uint32 id, uint64 score bits —
///                                         an IEEE double, best first)
/// Opcode 3 is unassigned: like any opcode outside this enum, it gets an
/// "unknown opcode 3" error response and the connection stays open.
enum class Op : uint8_t {
  kInsert = 1,
  kQuery = 2,
  kStats = 4,
  kRemove = 5,
  kMetrics = 6,
  kQueryProgressive = 7,
};

/// Opcode flag marking a traced request (uint64 trace id follows the
/// opcode byte). The low 7 bits remain the Op.
inline constexpr uint8_t kTracedOpBit = 0x80;

/// Response status codes.
inline constexpr uint8_t kStatusOk = 0;
inline constexpr uint8_t kStatusError = 1;

/// Frames larger than this are treated as protocol corruption and close
/// the connection.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Counters reported by the kStats operation.
struct ServiceStats {
  uint64_t records = 0;  ///< live (inserted minus removed) records
  uint64_t inserts = 0;
  uint64_t queries = 0;  ///< kQuery and kQueryProgressive requests
  uint64_t removes = 0;
  std::string index_name;
};

/// Append-only payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(std::string_view s);  // uint32 length + bytes

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Cursor over a received payload. Out-of-bounds reads latch !ok() and
/// return zeros/empties; callers validate once at the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  std::string_view Str();

  bool ok() const { return ok_; }
  /// True when the payload was fully consumed without under-runs.
  bool Finished() const { return ok_ && pos_ == data_.size(); }

 private:
  const unsigned char* Take(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Writes one length-prefixed frame to `fd`; false on any write error.
bool WriteFrame(int fd, std::string_view payload);

/// Reads one frame from `fd` into `*payload`. False on clean EOF before
/// a header, any read error, a short frame, or an oversize length.
bool ReadFrame(int fd, std::string* payload);

}  // namespace sablock::service

#endif  // SABLOCK_SERVICE_PROTOCOL_H_
