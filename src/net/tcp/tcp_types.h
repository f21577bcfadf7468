// TCP sequence-number arithmetic, connection states, and stack configuration.

#ifndef SRC_NET_TCP_TCP_TYPES_H_
#define SRC_NET_TCP_TCP_TYPES_H_

#include <cstdint>

#include "src/common/clock.h"

namespace demi {

// 32-bit wrapping TCP sequence number (RFC 793 modular arithmetic).
struct SeqNum {
  uint32_t v = 0;

  friend SeqNum operator+(SeqNum a, uint32_t n) { return SeqNum{a.v + n}; }
  friend SeqNum operator-(SeqNum a, uint32_t n) { return SeqNum{a.v - n}; }
  // Signed distance a - b; valid while |distance| < 2^31.
  friend int32_t operator-(SeqNum a, SeqNum b) { return static_cast<int32_t>(a.v - b.v); }
  friend bool operator==(SeqNum a, SeqNum b) { return a.v == b.v; }
  friend bool operator!=(SeqNum a, SeqNum b) { return a.v != b.v; }
  friend bool operator<(SeqNum a, SeqNum b) { return (a - b) < 0; }
  friend bool operator<=(SeqNum a, SeqNum b) { return (a - b) <= 0; }
  friend bool operator>(SeqNum a, SeqNum b) { return (a - b) > 0; }
  friend bool operator>=(SeqNum a, SeqNum b) { return (a - b) >= 0; }
};

enum class TcpState : uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kClosing,
  kTimeWait,
  kCloseWait,
  kLastAck,
};

// Fixed protocol constants. The simulated fabric runs at µs RTTs, so the RFC timers are scaled
// down accordingly (the classical 200 ms RTO floor would stall every loss for an eternity).
inline constexpr DurationNs kTcpMaxRto = 4 * kSecond;
inline constexpr int kTcpMaxSynRetries = 6;
// RFC 1122 delayed/coalesced acks: hold a pure ack for up to kTcpDelayedAckTimeout (the
// µs-fabric scaling of the RFC's 500 ms cap) and ack immediately after every
// kTcpAckEverySegments-th full-sized segment and on out-of-order or window-recovery events.
inline constexpr DurationNs kTcpDelayedAckTimeout = 500 * kMicrosecond;
inline constexpr uint32_t kTcpAckEverySegments = 2;
// TIME_WAIT hold (2*MSL); short because the simulated fabric's MSL is tiny.
inline constexpr DurationNs kTcpTimeWait = 10 * kMillisecond;
inline constexpr size_t kTcpMaxSynBacklog = 128;

struct TcpConfig {
  // Retransmission (RFC 6298 with datacenter-friendly floors; see the constants above).
  DurationNs initial_rto = 10 * kMillisecond;
  DurationNs min_rto = 1 * kMillisecond;
  int max_retransmits = 15;

  // Receive buffering / flow control.
  size_t recv_buffer_bytes = 1 << 20;
  uint8_t window_scale = 7;  // advertise 2^7 scaling (RFC 7323)

  // RFC 1122 delayed acks (see kTcpDelayedAckTimeout); off = ack every segment (ablation).
  bool delayed_acks = true;

  // RFC 7323 timestamps: negotiated on SYN; provides retransmission-safe RTT samples (RTTM)
  // and PAWS sequence protection. tsval granularity is 1 µs here (µs-scale RTTs would round
  // to zero at the classical 1 ms tick).
  bool timestamps = true;

  // Stateless SYN cookies (docs/SCALING.md §2): listeners answer SYNs without allocating any
  // connection state; the TCB materializes only when the third ACK returns a valid cookie.
  // Off by default because stateless SYN-ACKs cannot enforce a half-open backlog cap (the
  // classical accept-queue semantics some applications — and tests — rely on).
  bool syn_cookies = false;

  // Initial flow-table capacity (slots; rounded up to a power of two). The table grows
  // automatically at ~50% load; size this to the expected concurrent-connection count to
  // avoid rehash pauses during a connection ramp.
  size_t flow_table_capacity = 1024;

  // Seed for the ISN generator. Deterministic by default so tests replay exactly; chaos runs
  // vary it per seed and replays pin it (see docs/FAULTS.md).
  uint64_t isn_seed = 0xDEADBEEF;
};

}  // namespace demi

#endif  // SRC_NET_TCP_TCP_TYPES_H_
