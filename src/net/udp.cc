#include "src/net/udp.h"

#include "src/observability/metrics.h"

namespace demi {

UdpStack::UdpStack(EthernetLayer& eth, PoolAllocator& alloc) : eth_(eth), alloc_(alloc) {
  eth_.RegisterReceiver(IpProto::kUdp, this);
}

void UdpStack::RegisterMetrics(MetricsRegistry& registry) {
  registry.RegisterCounter("udp.tx_datagrams", "datagrams", [this] { return stats_.tx_datagrams; });
  registry.RegisterCounter("udp.rx_datagrams", "datagrams", [this] { return stats_.rx_datagrams; });
  registry.RegisterCounter("udp.rx_no_socket", "datagrams", [this] { return stats_.rx_no_socket; });
  registry.RegisterCounter("udp.rx_queue_drops", "datagrams",
                           [this] { return stats_.rx_queue_drops; });
  registry.RegisterCounter("udp.parse_errors", "datagrams", [this] { return stats_.parse_errors; });
  registry.RegisterCounter("udp.rx_checksum_drops", "datagrams",
                           [this] { return stats_.rx_checksum_drops; });
  registry.RegisterCounter("udp.rx_alloc_drops", "datagrams",
                           [this] { return stats_.rx_alloc_drops; });
  registry.RegisterGauge("udp.sockets", "sockets", [this] { return sockets_.size(); });
}

Result<UdpStack::Socket*> UdpStack::Bind(uint16_t port) {
  if (port == 0) {
    while (sockets_.count(next_ephemeral_) > 0) {
      next_ephemeral_ = next_ephemeral_ == 65535 ? 33000 : next_ephemeral_ + 1;
    }
    port = next_ephemeral_++;
    if (next_ephemeral_ == 0) {
      next_ephemeral_ = 33000;
    }
  } else if (sockets_.count(port) > 0) {
    return Status::kAddressInUse;
  }
  auto socket = std::make_unique<Socket>();
  socket->local_port_ = port;
  Socket* raw = socket.get();
  sockets_[port] = std::move(socket);
  return raw;
}

void UdpStack::Close(Socket* socket) {
  if (socket != nullptr) {
    sockets_.erase(socket->local_port_);
  }
}

Status UdpStack::SendTo(Socket& socket, SocketAddress dst, const Buffer& payload) {
  if (UdpHeader::kSize + payload.size() > eth_.MaxIpPayload()) {
    return Status::kMessageTooLong;
  }
  uint8_t hdr[UdpHeader::kSize];
  UdpHeader udp;
  udp.src_port = socket.local_port_;
  udp.dst_port = dst.port;
  udp.length = static_cast<uint16_t>(UdpHeader::kSize + payload.size());
  udp.Serialize(hdr, eth_.local_ip(), dst.ip, {payload.data(), payload.size()},
                /*compute_checksum=*/!eth_.checksum_offload());

  std::span<const uint8_t> segs[2] = {{hdr, sizeof(hdr)}, {payload.data(), payload.size()}};
  const size_t nsegs = payload.empty() ? 1 : 2;
  stats_.tx_datagrams++;
  return eth_.SendIpv4(dst.ip, IpProto::kUdp,
                       std::span<const std::span<const uint8_t>>(segs, nsegs), socket.tenant_);
}

void UdpStack::OnIpv4Packet(const Ipv4Header& ip, std::span<const uint8_t> l4,
                            TimeNs /*now*/) {
  // demilint: fastpath
  // Without device RX offload the stack verifies the pseudo-header checksum in software; this
  // is what catches injected bit flips before they reach the application.
  bool checksum_failed = false;
  const auto udp =
      UdpHeader::Parse(l4, ip.src, ip.dst, !eth_.checksum_offload(), &checksum_failed);
  if (!udp) {
    if (checksum_failed) {
      stats_.rx_checksum_drops++;
    } else {
      stats_.parse_errors++;
    }
    return;
  }
  auto it = sockets_.find(udp->dst_port);
  if (it == sockets_.end()) {
    stats_.rx_no_socket++;
    return;
  }
  Socket& socket = *it->second;
  if (socket.rx_.size() >= socket.max_queued_) {
    stats_.rx_queue_drops++;
    return;
  }
  const size_t payload_len = udp->length - UdpHeader::kSize;
  // Incoming data lands in a fresh DMA-heap buffer; pop() will hand ownership to the app.
  // Exhaustion degrades to a drop (a NIC with no mbufs), never an abort.
  Buffer buf = Buffer::TryAllocate(alloc_, payload_len, socket.tenant_);
  if (!buf.valid()) {
    stats_.rx_alloc_drops++;
    return;
  }
  if (payload_len > 0) {
    std::memcpy(buf.mutable_data(), l4.data() + UdpHeader::kSize, payload_len);
  }
  // demilint: allow(fastpath-alloc) rx_ growth is bounded by the max_queued_ check above
  socket.rx_.push_back(Datagram{SocketAddress{ip.src, udp->src_port}, std::move(buf)});
  socket.readable_.Notify();
  stats_.rx_datagrams++;
  // demilint: end-fastpath
}

}  // namespace demi
