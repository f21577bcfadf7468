#include "src/net/ethernet.h"

#include <algorithm>
#include <array>

#include "src/common/logging.h"
#include "src/faults/fault_injector.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"

namespace demi {

EthernetLayer::EthernetLayer(SimNic& nic, Ipv4Addr local_ip, bool checksum_offload,
                             size_t rx_burst_frames, size_t queue_id)
    : nic_(nic),
      local_ip_(local_ip),
      checksum_offload_(checksum_offload),
      queue_id_(queue_id),
      rx_frames_(rx_burst_frames == 0 ? 1 : rx_burst_frames) {}

void EthernetLayer::RegisterMetrics(MetricsRegistry& registry) {
  registry.RegisterCounter("eth.ipv4_rx", "packets", [this] { return stats_.ipv4_rx; });
  registry.RegisterCounter("eth.ipv4_tx", "packets", [this] { return stats_.ipv4_tx; });
  registry.RegisterCounter("eth.arp_requests_sent", "packets",
                           [this] { return stats_.arp_requests_sent; });
  registry.RegisterCounter("eth.arp_replies_sent", "packets",
                           [this] { return stats_.arp_replies_sent; });
  registry.RegisterCounter("eth.pending_dropped", "packets",
                           [this] { return stats_.pending_dropped; });
  registry.RegisterCounter("eth.parse_errors", "frames", [this] { return stats_.parse_errors; });
  registry.RegisterCounter("eth.no_receiver", "packets", [this] { return stats_.no_receiver; });
  registry.RegisterCounter("eth.rx_bursts", "bursts", [this] { return stats_.rx_bursts; });
  registry.RegisterCounter("eth.rx_burst_frames", "frames",
                           [this] { return stats_.rx_burst_frames; });
  registry.RegisterCounter("eth.tx_errors", "frames", [this] { return stats_.tx_errors; });
  registry.RegisterCounter("nic.tx_sched_inline", "frames",
                           [this] { return tx_sched_.stats().inline_frames; });
  registry.RegisterCounter("nic.tx_sched_enqueued", "frames",
                           [this] { return tx_sched_.stats().enqueued_frames; });
  registry.RegisterCounter("nic.tx_sched_drained", "frames",
                           [this] { return tx_sched_.stats().drained_frames; });
  registry.RegisterCounter("nic.tx_sched_drops", "frames",
                           [this] { return tx_sched_.stats().dropped_frames; });
  registry.RegisterCounter("nic.tx_sched_rounds", "rounds",
                           [this] { return tx_sched_.stats().drr_rounds; });
  registry.RegisterGauge("nic.tx_sched_backlog", "frames",
                         [this] { return tx_sched_.backlog_frames(); });
}

void EthernetLayer::RegisterReceiver(IpProto proto, Ipv4Receiver* receiver) {
  Ipv4Receiver** slot = ReceiverSlot(proto);
  DEMI_CHECK(slot != nullptr);
  *slot = receiver;
}

Status EthernetLayer::TransmitFlattened(MacAddr dst_mac, Ipv4Addr dst_ip, IpProto proto,
                                        std::span<const uint8_t> l4_bytes) {
  // Flattened frames live in ordinary heap memory, which the NIC may not DMA from (SimNic
  // enforces the discipline for segments at or above the zero-copy threshold). Hand the bytes
  // over as inline-sized chunks instead: the NIC copies each into the frame, the same bounce
  // cost the flattening itself already paid.
  constexpr size_t kInlineChunk = 512;
  std::array<std::span<const uint8_t>, 8> chunks;
  if (l4_bytes.size() > kInlineChunk * chunks.size()) {
    return Status::kMessageTooLong;  // > 4 KB cannot be one frame on any supported MTU
  }
  size_t n = 0;
  for (size_t off = 0; off < l4_bytes.size(); off += kInlineChunk) {
    chunks[n++] = l4_bytes.subspan(off, std::min(kInlineChunk, l4_bytes.size() - off));
  }
  return TransmitIpv4(dst_mac, dst_ip, proto, std::span(chunks.data(), n));
}

Status EthernetLayer::TransmitIpv4(MacAddr dst_mac, Ipv4Addr dst_ip, IpProto proto,
                                   std::span<const std::span<const uint8_t>> l4_segments) {
  size_t l4_len = 0;
  for (const auto& seg : l4_segments) {
    l4_len += seg.size();
  }
  uint8_t headers[EthernetHeader::kSize + Ipv4Header::kSize];
  EthernetHeader eth{dst_mac, nic_.mac(), EtherType::kIpv4};
  eth.Serialize(headers);
  Ipv4Header ip;
  ip.total_length = static_cast<uint16_t>(Ipv4Header::kSize + l4_len);
  ip.protocol = proto;
  ip.src = local_ip_;
  ip.dst = dst_ip;
  ip.Serialize(headers + EthernetHeader::kSize, /*compute_checksum=*/!checksum_offload_);

  // Gather: [eth+ip | l4 segments...] in one burst; payload segments stay zero-copy.
  std::span<const uint8_t> segs[8];
  DEMI_CHECK(l4_segments.size() + 1 <= 8);
  segs[0] = {headers, sizeof(headers)};
  for (size_t i = 0; i < l4_segments.size(); i++) {
    segs[i + 1] = l4_segments[i];
  }
  stats_.ipv4_tx++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kPacketTx, static_cast<uint32_t>(proto), l4_len);
  }
  return nic_.TxBurst(queue_id_, dst_mac,
                      std::span<const std::span<const uint8_t>>(segs, l4_segments.size() + 1));
}

Status EthernetLayer::SendIpv4(Ipv4Addr dst, IpProto proto,
                               std::span<const std::span<const uint8_t>> l4_segments,
                               TenantId tenant) {
  size_t l4_len = 0;
  for (const auto& seg : l4_segments) {
    l4_len += seg.size();
  }
  if (tenant != kDefaultTenant) {
    // Explicitly attached injector first, else whatever the fabric is armed with — chaos tests
    // arm SimNetwork after the libOS exists and still expect tenant_drop to bite.
    FaultInjector* fx = faults_ != nullptr ? faults_ : nic_.network().fault_injector();
    if (fx != nullptr && fx->TenantShouldDrop(tenant, l4_len)) {
      return Status::kOk;  // injected tenant-scoped loss: frame consumed, L4 RTO recovers
    }
  }
  const auto mac = arp_cache_.Lookup(dst);
  if (mac) {
    if (tenant != kDefaultTenant &&
        !tx_sched_.AdmitInline(tenant, l4_len, nic_.clock().Now())) {
      // Over the tenant's token-bucket rate (or behind its backlog): flatten and queue, the
      // same copy the ARP-miss path accepts. PollOnce drains it when tokens accrue.
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventType::kTenantTxThrottle, tenant, l4_len);
      }
      TxScheduler::Frame f;
      f.dst_mac = *mac;
      f.dst_ip = dst;
      f.proto = proto;
      f.l4_bytes.reserve(l4_len);
      for (const auto& seg : l4_segments) {
        f.l4_bytes.insert(f.l4_bytes.end(), seg.begin(), seg.end());
      }
      tx_sched_.Enqueue(tenant, std::move(f), nic_.clock().Now());
      return Status::kOk;
    }
    return TransmitIpv4(*mac, dst, proto, l4_segments);
  }
  // ARP miss: queue a flattened copy and ask for the mapping (the slow path; the paper's fast
  // path assumes a warm ARP cache).
  auto& q = pending_[dst.value];
  if (q.size() >= kMaxPendingPerIp) {
    stats_.pending_dropped++;
    return Status::kNoBufferSpace;
  }
  PendingPacket p;
  p.proto = proto;
  for (const auto& seg : l4_segments) {
    p.l4_bytes.insert(p.l4_bytes.end(), seg.begin(), seg.end());
  }
  q.push_back(std::move(p));
  SendArp(ArpPacket::Op::kRequest, MacAddr::Broadcast(), MacAddr::Zero(), dst);
  stats_.arp_requests_sent++;
  return Status::kOk;
}

void EthernetLayer::SendArp(ArpPacket::Op op, MacAddr dst_mac, MacAddr target_mac,
                            Ipv4Addr target_ip) {
  uint8_t frame[EthernetHeader::kSize + ArpPacket::kSize];
  EthernetHeader eth{dst_mac, nic_.mac(), EtherType::kArp};
  eth.Serialize(frame);
  ArpPacket arp;
  arp.op = op;
  arp.sender_mac = nic_.mac();
  arp.sender_ip = local_ip_;
  arp.target_mac = target_mac;
  arp.target_ip = target_ip;
  arp.Serialize(frame + EthernetHeader::kSize);
  std::span<const uint8_t> seg(frame, sizeof(frame));
  if (nic_.TxBurst(queue_id_, dst_mac, {&seg, 1}) != Status::kOk) {
    stats_.tx_errors++;  // ARP is best-effort; the requester retries on timeout
  }
}

void EthernetLayer::HandleArp(std::span<const uint8_t> payload) {
  const auto arp = ArpPacket::Parse(payload);
  if (!arp) {
    stats_.parse_errors++;
    return;
  }
  // Learn the sender's mapping either way.
  arp_cache_.Insert(arp->sender_ip, arp->sender_mac);

  if (arp->op == ArpPacket::Op::kRequest && arp->target_ip == local_ip_) {
    SendArp(ArpPacket::Op::kReply, arp->sender_mac, arp->sender_mac, arp->sender_ip);
    stats_.arp_replies_sent++;
  }

  // Flush packets that were waiting on this mapping.
  auto it = pending_.find(arp->sender_ip.value);
  if (it != pending_.end()) {
    for (PendingPacket& p : it->second) {
      if (TransmitFlattened(arp->sender_mac, arp->sender_ip, p.proto, p.l4_bytes) !=
          Status::kOk) {
        stats_.tx_errors++;  // queued packet lost on TX failure; L4 retransmission recovers
      }
    }
    pending_.erase(it);
  }
}

size_t EthernetLayer::PollOnce(TimeNs now) {
  // demilint: fastpath
  const size_t n = nic_.RxBurst(queue_id_, rx_frames_, now);
  if (n > 0) {
    stats_.rx_bursts++;
    stats_.rx_burst_frames += n;
    for (Ipv4Receiver* receiver : receivers_) {
      if (receiver != nullptr) {
        receiver->OnRxBurstBegin();
      }
    }
  }
  for (size_t i = 0; i < n; i++) {
    std::span<const uint8_t> frame(rx_frames_[i]);
    const auto eth = EthernetHeader::Parse(frame);
    if (!eth) {
      stats_.parse_errors++;
      continue;
    }
    if (eth->dst != nic_.mac() && !eth->dst.IsBroadcast()) {
      continue;  // not for us (promiscuous fabric broadcast)
    }
    auto payload = frame.subspan(EthernetHeader::kSize);
    if (eth->ether_type == EtherType::kArp) {
      HandleArp(payload);
      continue;
    }
    const auto ip = Ipv4Header::Parse(payload, /*verify=*/!checksum_offload_);
    if (!ip) {
      stats_.parse_errors++;
      continue;
    }
    if (ip->dst != local_ip_ && ip->dst != Ipv4Addr::Broadcast()) {
      continue;
    }
    stats_.ipv4_rx++;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kPacketRx, static_cast<uint32_t>(ip->protocol),
                      ip->total_length - Ipv4Header::kSize);
    }
    Ipv4Receiver** slot = ReceiverSlot(ip->protocol);
    if (slot == nullptr || *slot == nullptr) {
      stats_.no_receiver++;
      continue;
    }
    (*slot)->OnIpv4Packet(
        *ip, payload.subspan(Ipv4Header::kSize, ip->total_length - Ipv4Header::kSize), now);
  }
  if (n > 0) {
    for (Ipv4Receiver* receiver : receivers_) {
      if (receiver != nullptr) {
        receiver->OnRxBurstEnd(now);
      }
    }
  }
  if (tx_sched_.backlog_frames() > 0) {
    // Weighted-DRR drain of throttled tenant frames that time has unlocked.
    tx_sched_.Drain(now, [this](const TxScheduler::Frame& f) {
      const Status st = TransmitFlattened(f.dst_mac, f.dst_ip, f.proto, f.l4_bytes);
      if (st != Status::kOk) {
        stats_.tx_errors++;  // drained frame lost on TX failure; L4 retransmission recovers
      }
      return st;
    });
  }
  return n;
  // demilint: end-fastpath
}

}  // namespace demi
