// protocol.hpp — the counter-as-a-service wire protocol.
//
// The shard server (server.hpp) multiplexes millions of named logical
// counters onto a handful of sharded engines; clients speak a tiny
// length-prefixed binary protocol over a UNIX-domain or TCP stream.
// The protocol's one structural idea mirrors the engine's: a blocking
// Check parks a *connection*, not a thread.  A request that cannot be
// answered yet (Check/CheckFor/OnReach below the level) produces no
// response until the level is reached — the client correlates by
// req_id, so it can keep pipelining other requests on the same stream
// while thousands of its waits are parked server-side as heap nodes.
//
// Frame layout (everything little-endian, no padding):
//
//   request:   u32 payload_len | u8 opcode | u64 req_id | body
//   response:  u32 payload_len | u8 status | u64 req_id | body
//
// payload_len counts everything after the length word (opcode/status
// included) and is capped at kMaxFramePayload — an oversized length is
// a protocol error and the server closes the stream (there is no way
// to resync).  A malformed *body* inside a well-formed frame is
// recoverable: the server answers kBadRequest and keeps the stream.
//
// Request bodies:
//
//   kOpen       u16 name_len | name | u16 spec_len | spec
//               (empty spec = the server's default; reopening an
//               existing name returns the same id and ignores the spec)
//   kIncrement  u64 counter_id | u64 amount | u8 flags
//               (flags bit 0 = no_ack: fire-and-forget, no response;
//                flags bit 1 = the body carries a trailing u64 seq —
//                the server dedups (session, seq) in a bounded window,
//                making retried increments idempotent)
//   kCheck      u64 counter_id | u64 level
//   kCheckFor   u64 counter_id | u64 level | u64 timeout_ns
//   kOnReach    u64 counter_id | u64 level
//   kPoison     u64 counter_id | u16 reason_len | reason
//   kStats      u64 counter_id            (0 = server-wide stats)
//   kHello      u64 session_hi | u64 session_lo
//               (binds the connection to a client session UUID; the
//                reply carries the server epoch + dedup window, so a
//                reconnecting client learns whether its cached ids
//                survived — same epoch — or must be re-resolved)
//   kResolve    u16 name_len | name
//               (resolve WITHOUT creating: kOk + id + value when the
//                name exists, kUnknownCounter otherwise — the
//                reconnect path's id refresher)
//
// Response bodies by status:
//
//   kOk         op-specific: Open/Resolve → u64 counter_id | u64
//               value; Hello → u64 epoch | u64 dedup_window;
//               Increment/Poison → empty; Stats → u32 n | n × (u16
//               key_len | key | u64 value) — self-describing pairs, so
//               adding fields never breaks old clients
//   kReached    u64 value_lower_bound (Check/CheckFor/OnReach success)
//   kTimedOut   empty (CheckFor deadline expired)
//   kPoisoned   u16 msg_len | msg (typed: client raises
//               CounterPoisonedError carrying the producer's reason)
//   kOverloaded u16 msg_len | msg (admission control turned the wait
//               away; typed as CounterOverloadedError client-side)
//   kUnknownCounter / kBadRequest  u16 msg_len | msg
//   kShuttingDown  empty (server is draining; reconnect elsewhere)
//
// counter_id 0 is reserved (Stats: server-wide).  Ids encode their
// engine shard: shard = (id - 1) % shard_count — the server computes
// it, clients treat ids as opaque.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace monotonic::server {

enum class Op : std::uint8_t {
  kOpen = 1,
  kIncrement = 2,
  kCheck = 3,
  kCheckFor = 4,
  kOnReach = 5,
  kPoison = 6,
  kStats = 7,
  kHello = 8,
  kResolve = 9,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kReached = 1,
  kTimedOut = 2,
  kPoisoned = 3,
  kOverloaded = 4,
  kUnknownCounter = 5,
  kBadRequest = 6,
  kShuttingDown = 7,
};

constexpr std::string_view to_string(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kReached: return "reached";
    case Status::kTimedOut: return "timed-out";
    case Status::kPoisoned: return "poisoned";
    case Status::kOverloaded: return "overloaded";
    case Status::kUnknownCounter: return "unknown-counter";
    case Status::kBadRequest: return "bad-request";
    case Status::kShuttingDown: return "shutting-down";
  }
  return "?";
}

/// Hard cap on a frame's payload (after the u32 length word).  Names,
/// specs and poison reasons are short; anything bigger is a corrupt or
/// hostile stream.
inline constexpr std::size_t kMaxFramePayload = 64 * 1024;

/// Increment flags.
inline constexpr std::uint8_t kIncrementNoAck = 0x01;
/// The Increment body carries a trailing u64 sequence number scoped to
/// the connection's Hello session; the server applies each (session,
/// seq) at most once within its dedup window, so a client may re-send
/// an unacknowledged increment after a reconnect without risking a
/// double count.
inline constexpr std::uint8_t kIncrementHasSeq = 0x02;

// ---- encoding ------------------------------------------------------
// Append-to-string writers; explicit shifts, so the wire format is
// little-endian on every host.  Multi-byte words are packed into a
// local buffer and appended once: one capacity check per word instead
// of one per byte.

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

template <typename U>
inline void put_le(std::string& out, U v) {
  char bytes[sizeof(U)];
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.append(bytes, sizeof(U));
}

inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

inline void put_str16(std::string& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s.data(), s.size());
}

/// Builds `u32 len | u8 tag | u64 req_id | body` in one buffer.
/// `tag` is an opcode on the client side, a status on the server side.
inline std::string make_frame(std::uint8_t tag, std::uint64_t req_id,
                              std::string_view body) {
  std::string out;
  out.reserve(4 + 1 + 8 + body.size());
  put_u32(out, static_cast<std::uint32_t>(1 + 8 + body.size()));
  put_u8(out, tag);
  put_u64(out, req_id);
  out.append(body.data(), body.size());
  return out;
}

// ---- decoding ------------------------------------------------------

/// Bounds-checked cursor over one frame's payload.  Every getter
/// returns false on truncation instead of reading past the end, so a
/// corrupt body surfaces as kBadRequest, never as garbage state.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : p_(data), end_(data + size) {}
  explicit Reader(std::string_view s) : Reader(s.data(), s.size()) {}

  bool get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = static_cast<std::uint8_t>(*p_++);
    return true;
  }

  bool get_u16(std::uint16_t& v) {
    if (remaining() < 2) return false;
    v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(
          v | (static_cast<std::uint16_t>(static_cast<unsigned char>(*p_++))
               << (8 * i)));
    }
    return true;
  }

  bool get_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(*p_++))
           << (8 * i);
    }
    return true;
  }

  bool get_u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(*p_++))
           << (8 * i);
    }
    return true;
  }

  bool get_str16(std::string_view& s) {
    std::uint16_t len = 0;
    if (!get_u16(len)) return false;
    if (remaining() < len) return false;
    s = std::string_view(p_, len);
    p_ += len;
    return true;
  }

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  bool empty() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace monotonic::server
