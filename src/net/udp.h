// UdpStack: Catnip's UDP layer. Per-port sockets with queued inbound datagrams; inbound payloads
// land in freshly allocated DMA-heap buffers (PDPIX pop hands them straight to the application),
// outbound payloads go to the NIC zero-copy.

#ifndef SRC_NET_UDP_H_
#define SRC_NET_UDP_H_

#include <deque>
#include <memory>
#include <unordered_map>

#include "src/common/status.h"
#include "src/memory/buffer.h"
#include "src/net/ethernet.h"
#include "src/runtime/wait_list.h"

namespace demi {

class UdpStack final : public Ipv4Receiver {
 public:
  struct Datagram {
    SocketAddress src;
    Buffer payload;
  };

  class Socket {
   public:
    uint16_t local_port() const { return local_port_; }
    // Isolation domain charged for this socket's TX frames and RX payload buffers.
    TenantId tenant() const { return tenant_; }
    void set_tenant(TenantId tenant) { tenant_ = tenant; }
    bool HasData() const { return !rx_.empty(); }
    std::optional<Datagram> PopDatagram() {
      if (rx_.empty()) {
        return std::nullopt;
      }
      Datagram d = std::move(rx_.front());
      rx_.pop_front();
      return d;
    }
    WaitList& readable() { return readable_; }

   private:
    friend class UdpStack;
    uint16_t local_port_ = 0;
    TenantId tenant_ = kDefaultTenant;
    std::deque<Datagram> rx_;
    WaitList readable_;
    size_t max_queued_ = 1024;
  };

  UdpStack(EthernetLayer& eth, PoolAllocator& alloc);

  // Binds a socket to `port` (0 picks an ephemeral port). The socket stays valid until Close.
  Result<Socket*> Bind(uint16_t port);
  void Close(Socket* socket);

  // Sends one datagram. The payload buffer stays referenced until the frame hits the wire
  // (synchronous in the simulated NIC). Fails with kMessageTooLong beyond one MTU: like the
  // paper's stack, we do not implement IP fragmentation.
  [[nodiscard]] Status SendTo(Socket& socket, SocketAddress dst, const Buffer& payload);

  void OnIpv4Packet(const Ipv4Header& ip, std::span<const uint8_t> l4, TimeNs now) override;

  struct Stats {
    uint64_t tx_datagrams = 0;
    uint64_t rx_datagrams = 0;
    uint64_t rx_no_socket = 0;
    uint64_t rx_queue_drops = 0;
    uint64_t parse_errors = 0;
    uint64_t rx_checksum_drops = 0;  // software-verified checksum mismatch (corruption caught)
    uint64_t rx_alloc_drops = 0;     // heap exhausted while landing a payload
  };
  const Stats& stats() const { return stats_; }

  // Registers the udp.* counters as callback gauges (docs/OBSERVABILITY.md).
  void RegisterMetrics(MetricsRegistry& registry);

 private:
  EthernetLayer& eth_;
  PoolAllocator& alloc_;
  std::unordered_map<uint16_t, std::unique_ptr<Socket>> sockets_;
  uint16_t next_ephemeral_ = 33000;
  Stats stats_;
};

}  // namespace demi

#endif  // SRC_NET_UDP_H_
