// TxScheduler: per-tenant token-bucket rate limiting plus weighted deficit-round-robin frame
// scheduling at the EthernetLayer/SimNic boundary (docs/TENANCY.md).
//
// The fast path stays zero-copy: a frame from a tenant with tokens available and no backlog is
// transmitted inline by the caller (AdmitInline). Only frames that exceed their tenant's bucket
// are flattened and queued — the same copy cost the ARP-miss path already accepts — and drained
// by weighted DRR from PollOnce, so a flooding tenant queues behind its own bucket while other
// tenants' traffic keeps flowing at full rate. Tenants with no configured rate (and the
// kDefaultTenant control domain) bypass the scheduler entirely: zero cost when unused.
//
// One scheduler per EthernetLayer, i.e. per shard: single-threaded, no locks.

#ifndef SRC_NET_TX_SCHEDULER_H_
#define SRC_NET_TX_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/core/types.h"
#include "src/net/headers.h"

namespace demi {

class TxScheduler {
 public:
  // A flattened frame waiting behind its tenant's bucket (zero-copy is forfeited on the
  // throttled path, exactly like the ARP-miss queue).
  struct Frame {
    MacAddr dst_mac;
    Ipv4Addr dst_ip;
    IpProto proto = IpProto::kUdp;
    std::vector<uint8_t> l4_bytes;
  };

  struct Stats {
    uint64_t inline_frames = 0;    // admitted on the zero-copy fast path
    uint64_t enqueued_frames = 0;  // throttled behind a token bucket
    uint64_t drained_frames = 0;   // sent from tenant queues by Drain()
    uint64_t dropped_frames = 0;   // tail-dropped at the per-tenant queue cap
    uint64_t drr_rounds = 0;       // deficit-round-robin scan rounds
  };

  struct TenantTxStats {
    uint64_t tx_bytes = 0;      // L4 bytes actually transmitted (inline + drained)
    uint64_t throttled = 0;     // frames that missed the bucket and were queued
    size_t queued_frames = 0;   // current backlog
  };

  // Frames a throttled tenant may hold before tail drop; L4 retransmission recovers.
  static constexpr size_t kMaxQueuedPerTenant = 1024;
  // DRR quantum per weight unit per round, in bytes (roughly one MTU frame).
  static constexpr uint64_t kQuantumBytes = 1500;

  // Installs (or updates) a tenant's TX policy. rate_bps == 0 removes rate limiting for the
  // tenant (it keeps its weight for DRR ordering of any still-queued frames).
  void Configure(TenantId tenant, uint64_t rate_bps, size_t burst_bytes, uint32_t weight);

  // True when `tenant` has a configured rate limit (the only case frames can queue).
  bool IsLimited(TenantId tenant) const;

  // Fast-path admission: consumes `frame_bytes` of tokens and returns true when the caller
  // should transmit inline (tenant unlimited, or bucket covers the frame and nothing is
  // queued ahead of it). Returns false when the frame must go through Enqueue().
  bool AdmitInline(TenantId tenant, size_t frame_bytes, TimeNs now);

  // Queues a throttled frame behind the tenant's bucket. Tail-drops at kMaxQueuedPerTenant.
  void Enqueue(TenantId tenant, Frame frame, TimeNs now);

  // Weighted-DRR drain: refills buckets to `now` and transmits every queued frame whose
  // tenant has both deficit and tokens, via `tx`. Returns frames transmitted.
  size_t Drain(TimeNs now, const std::function<Status(const Frame&)>& tx);

  const Stats& stats() const { return stats_; }
  TenantTxStats GetTenantTxStats(TenantId tenant) const;
  size_t backlog_frames() const { return backlog_frames_; }

 private:
  struct TenantState {
    TenantId id = kDefaultTenant;
    uint64_t rate_bps = 0;
    double burst_bytes = 0;
    uint32_t weight = 1;
    double tokens = 0;       // bytes currently in the bucket
    TimeNs last_refill = 0;  // virtual-time refill anchor
    double deficit = 0;      // DRR deficit counter, bytes
    uint64_t tx_bytes = 0;
    uint64_t throttled = 0;
    std::deque<Frame> queue;
  };

  TenantState* FindState(TenantId tenant);
  const TenantState* FindState(TenantId tenant) const;
  static void Refill(TenantState& s, TimeNs now);

  // Linear scan: a handful of tenants per shard, hot in cache.
  std::vector<TenantState> states_;
  Stats stats_;
  size_t backlog_frames_ = 0;
};

}  // namespace demi

#endif  // SRC_NET_TX_SCHEDULER_H_
