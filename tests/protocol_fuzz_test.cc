// A seeded mutation driver for the candidate server's wire protocol. Valid
// request payloads for every opcode, plus opcode 3 (unassigned since the
// batch query was removed) and other unassigned opcodes, are mutated at
// the byte level: bytes flipped, inserted and deleted, the payload
// truncated, and the traced bit set and cleared. Each mutant is framed
// with its true length and sent to a live CandidateServer, so the server
// never waits for bytes that will not come. Every reply must be a
// well-formed ok or error frame, an ok reply must have the shape of its
// opcode's response, an unassigned opcode (3 included) must get
// "unknown opcode N", and after an error the connection must still answer.
// Separately, an oversize length prefix must close only its own
// connection.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "service/candidate_server.h"
#include "service/candidate_service.h"
#include "service/protocol.h"

namespace sablock::service {
namespace {

constexpr Op kAssigned[] = {Op::kInsert, Op::kQuery,   Op::kStats,
                            Op::kRemove, Op::kMetrics, Op::kQueryProgressive};

bool IsAssigned(uint8_t op) {
  return std::ranges::find(kAssigned, static_cast<Op>(op)) !=
         std::end(kAssigned);
}

/// A raw connection to the server, speaking frames.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  /// One round trip; false when the connection fails either way.
  bool Call(const std::string& request, std::string* reply) {
    return WriteFrame(fd_, request) && ReadFrame(fd_, reply);
  }

 private:
  int fd_;
  bool connected_ = false;
};

std::string SocketPath(const std::string& tag) {
  return "/tmp/sablock-fuzz-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

const std::vector<std::string> kValues = {
    "Alice Smith", "Berlin", "", "bob", "SMITH, J.", "Paris",
    std::string("x\xff\0y", 4)};
const std::vector<std::string> kBudgets = {"", "pairs=1", "pairs=3",
                                           "seconds=5", "pairs=2,seconds=1"};

void AppendValueList(Rng& rng, WireWriter* w) {
  w->U32(2);
  w->Str(rng.Pick(kValues));
  w->Str(rng.Pick(kValues));
}

/// A valid request payload for `op`, traced or not. For opcode 3 the body
/// is the retired batch query's (a count, then that many value lists);
/// other unassigned opcodes carry random bytes.
std::string ValidPayload(Rng& rng, uint8_t op, bool traced) {
  WireWriter w;
  if (traced) {
    w.U8(op | kTracedOpBit);
    w.U64(1 + rng.UniformIndex(1000));
  } else {
    w.U8(op);
  }
  switch (static_cast<Op>(op)) {
    case Op::kInsert:
    case Op::kQuery:
      AppendValueList(rng, &w);
      break;
    case Op::kStats:
    case Op::kMetrics:
      break;
    case Op::kRemove:
      w.U32(static_cast<uint32_t>(rng.UniformIndex(40)));
      break;
    case Op::kQueryProgressive:
      AppendValueList(rng, &w);
      w.Str(rng.Pick(kBudgets));
      break;
    default:
      if (op == 3) {
        const auto probes = static_cast<uint32_t>(rng.UniformIndex(3));
        w.U32(probes);
        for (uint32_t i = 0; i < probes; ++i) AppendValueList(rng, &w);
        break;
      }
      for (size_t i = rng.UniformIndex(12); i > 0; --i) {
        w.U8(static_cast<uint8_t>(rng.UniformIndex(256)));
      }
  }
  return w.bytes();
}

/// One byte-level mutation: flip, insert or delete a byte, truncate, or
/// set or clear the traced bit.
void Mutate(Rng& rng, std::string* payload) {
  const size_t kind = rng.UniformIndex(6);
  if (payload->empty()) {
    if (kind == 1) {
      payload->push_back(static_cast<char>(rng.UniformIndex(256)));
    }
    return;
  }
  const size_t at = rng.UniformIndex(payload->size());
  switch (kind) {
    case 0:
      (*payload)[at] ^= static_cast<char>(1 + rng.UniformIndex(255));
      break;
    case 1:
      payload->insert(payload->begin() + static_cast<std::ptrdiff_t>(at),
                      static_cast<char>(rng.UniformIndex(256)));
      break;
    case 2:
      payload->erase(at, 1);
      break;
    case 3:
      payload->resize(at);
      break;
    case 4:
      (*payload)[0] = static_cast<char>((*payload)[0] | kTracedOpBit);
      break;
    default:
      (*payload)[0] = static_cast<char>((*payload)[0] & ~kTracedOpBit);
  }
}

/// Skips a count and that many record ids, each with a score if `scored`.
void SkipIds(WireReader& r, bool scored) {
  const uint32_t count = r.U32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    r.U32();
    if (scored) r.U64();
  }
}

/// Whether `reply` is a well-formed response to `request`: an error frame
/// (status, then one message string), or an ok frame whose body has the
/// shape of the request opcode's response. Sets `*error` to the message of
/// an error frame.
bool WellFormed(const std::string& request, const std::string& reply,
                std::string* error) {
  WireReader r(reply);
  const uint8_t status = r.U8();
  if (!r.ok()) return false;
  if (status == kStatusError) {
    *error = std::string(r.Str());
    return r.Finished();
  }
  if (status != kStatusOk || request.empty()) return false;
  const uint8_t op = static_cast<uint8_t>(request[0]) & ~kTracedOpBit;
  switch (static_cast<Op>(op)) {
    case Op::kInsert:
      r.U32();
      break;
    case Op::kQuery:
      SkipIds(r, /*scored=*/false);
      break;
    case Op::kStats:
      for (int i = 0; i < 4; ++i) r.U64();
      r.Str();
      break;
    case Op::kRemove:
      if (r.U8() > 1) return false;
      break;
    case Op::kMetrics:
      r.Str();
      break;
    case Op::kQueryProgressive:
      SkipIds(r, /*scored=*/true);
      break;
    default:
      return false;  // an unassigned opcode never succeeds
  }
  return r.Finished();
}

/// The opcode an error reply must name as unknown, or -1: the low bits of
/// an unassigned opcode whose trace id, if flagged, is complete.
int UnknownOpcode(const std::string& request) {
  if (request.empty()) return -1;
  const auto first = static_cast<uint8_t>(request[0]);
  const uint8_t op = first & ~kTracedOpBit;
  if (IsAssigned(op)) return -1;
  if ((first & kTracedOpBit) != 0 && request.size() < 9) return -1;
  return op;
}

std::unique_ptr<CandidateService> TokenService() {
  std::unique_ptr<CandidateService> service;
  const Status s = CandidateService::Make(
      data::Schema({"name", "city"}), "token-blocking:attrs=name+city",
      &service);
  EXPECT_TRUE(s.ok()) << s.message();
  return service;
}

std::string StatsRequest() {
  WireWriter w;
  w.U8(static_cast<uint8_t>(Op::kStats));
  return w.bytes();
}

TEST(ProtocolFuzzTest, MutatedFramesGetWellFormedRepliesOnAnOpenConnection) {
  std::unique_ptr<CandidateService> service = TokenService();
  CandidateServer server(service.get(), SocketPath("frames"), 2);
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn(server.socket_path());
  ASSERT_TRUE(conn.connected());

  // Every assigned opcode, opcode 3, and unassigned ones on both sides.
  std::vector<uint8_t> opcodes;
  for (Op op : kAssigned) opcodes.push_back(static_cast<uint8_t>(op));
  for (int op : {0, 3, 8, 9, 42, 127}) {
    opcodes.push_back(static_cast<uint8_t>(op));
  }

  Rng rng(0xf022);
  size_t ok_replies = 0;
  size_t error_replies = 0;
  constexpr size_t kFrames = 12000;
  for (size_t n = 0; n < kFrames; ++n) {
    // Each round of frames sends every opcode untraced, then traced; one
    // round in four goes out as built, the others as mutants.
    const size_t round = n / (2 * opcodes.size());
    const uint8_t op = opcodes[n % opcodes.size()];
    const bool traced = (n / opcodes.size()) % 2 == 1;
    std::string request = ValidPayload(rng, op, traced);
    const bool mutated = round % 4 != 0;
    if (mutated) {
      for (size_t m = 1 + rng.UniformIndex(3); m > 0; --m) {
        Mutate(rng, &request);
      }
    }
    std::string reply;
    ASSERT_TRUE(conn.Call(request, &reply)) << "frame " << n;
    std::string error;
    ASSERT_TRUE(WellFormed(request, reply, &error))
        << "frame " << n << ", opcode " << int(op);
    const bool is_error = reply[0] == static_cast<char>(kStatusError);
    if (!mutated) {
      // A valid frame succeeds exactly when its opcode is assigned.
      EXPECT_EQ(is_error, !IsAssigned(op)) << "frame " << n << ": " << error;
    }
    const int unknown = UnknownOpcode(request);
    if (unknown >= 0) {
      ASSERT_TRUE(is_error) << "frame " << n;
      EXPECT_EQ(error, "unknown opcode " + std::to_string(unknown))
          << "frame " << n;
    }
    if (!is_error) {
      ++ok_replies;
      continue;
    }
    ++error_replies;
    // The connection still answers after an error reply.
    std::string stats;
    ASSERT_TRUE(conn.Call(StatsRequest(), &stats)) << "frame " << n;
    ASSERT_TRUE(WellFormed(StatsRequest(), stats, &error)) << "frame " << n;
    ASSERT_EQ(stats[0], static_cast<char>(kStatusOk)) << "frame " << n;
  }
  // Both outcomes are well represented.
  EXPECT_GT(ok_replies, kFrames / 10);
  EXPECT_GT(error_replies, kFrames / 10);
  server.Stop();
}

TEST(ProtocolFuzzTest, OversizeLengthPrefixClosesOnlyItsConnection) {
  std::unique_ptr<CandidateService> service = TokenService();
  CandidateServer server(service.get(), SocketPath("oversize"), 3);
  ASSERT_TRUE(server.Start().ok());
  RawConnection bystander(server.socket_path());
  ASSERT_TRUE(bystander.connected());
  std::string reply;
  ASSERT_TRUE(bystander.Call(StatsRequest(), &reply));

  for (uint32_t length : {kMaxFrameBytes + 1, uint32_t{0xffffffff}}) {
    RawConnection offender(server.socket_path());
    ASSERT_TRUE(offender.connected());
    char header[4];
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<char>((length >> (8 * i)) & 0xff);
    }
    ASSERT_EQ(::send(offender.fd(), header, sizeof(header), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(header)));
    // The server closes the offender without a reply...
    EXPECT_FALSE(ReadFrame(offender.fd(), &reply)) << length;
    // ...while the other connection, and a new one, still answer.
    ASSERT_TRUE(bystander.Call(StatsRequest(), &reply)) << length;
    EXPECT_EQ(reply[0], static_cast<char>(kStatusOk));
    RawConnection fresh(server.socket_path());
    ASSERT_TRUE(fresh.connected());
    ASSERT_TRUE(fresh.Call(StatsRequest(), &reply)) << length;
    EXPECT_EQ(reply[0], static_cast<char>(kStatusOk));
  }
  server.Stop();
}

}  // namespace
}  // namespace sablock::service
