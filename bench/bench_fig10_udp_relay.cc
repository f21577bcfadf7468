// Figure 10 reproduction: TURN-style UDP relay, average and p99 forwarding latency.
//
// Paper result: Linux 27.6 µs avg / 25-ish p99; io_uring modestly better (24.4/24.9);
// Catnip 14-16 µs — an ~11 µs per-packet CPU saving that translates directly into relay-fleet
// cost. Substitutions: the io_uring variant is a batched recvmmsg/sendmmsg relay (liburing is
// unavailable offline), and the Catnip row uses a fabric-side generator (a kernel generator
// cannot reach the simulated NIC). Required shape: kernel < batched-kernel < Catnip, with the
// kernel rows dominated by syscall+wakeup costs.

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "src/apps/udp_relay.h"

namespace demi {
namespace bench {
namespace {

constexpr uint64_t kPackets = 5000;
constexpr size_t kPacketSize = 64;

Histogram KernelRelay(bool batched) {
  std::atomic<bool> stop{false};
  const SocketAddress relay_addr = Loopback(UniquePort());
  const SocketAddress sink_addr = Loopback(UniquePort());
  std::atomic<bool> up{false};
  std::thread relay([&] {
    up = true;
    if (batched) {
      RunBatchedPosixUdpRelay(RelayOptions{relay_addr, sink_addr}, stop, nullptr);
    } else {
      RunPosixUdpRelay(RelayOptions{relay_addr, sink_addr}, stop, nullptr);
    }
  });
  while (!up) {
  }
  LoadResult result;
  {
    PosixTransport link(SocketType::kDatagram, {relay_addr}, sink_addr);
    EchoCodec packets(kPacketSize);
    result = RunLoad(link, packets, {kPackets, 200});
  }
  stop = true;
  relay.join();
  return result.latency;
}

}  // namespace

void Main() {
  PrintHeader("Figure 10: UDP relay forwarding latency (avg and tail)",
              "Linux 27.6/24.9us, io_uring 25.8/24.4us, Catnip 14.9/13.9us — ~11us "
              "per-packet CPU saved");

  PrintLatencyRow("Linux (recvfrom/sendto)", KernelRelay(false), "2 syscalls per packet");
  PrintLatencyRow("Linux batched (mmsg)", KernelRelay(true), "io_uring stand-in: batched syscalls");

  {
    MonotonicClock clock;
    SimNetwork net(LinkConfig{}, 1);
    Catnip relay_os(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    Catnip gen_os(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
    relay_os.ethernet().arp().Insert(kClientIp, kClientMac);
    gen_os.ethernet().arp().Insert(kServerIp, kServerMac);
    const SocketAddress relay_addr{kServerIp, 3478};
    const SocketAddress sink_addr{kClientIp, 9999};
    UdpRelayApp relay(relay_os, RelayOptions{relay_addr, sink_addr});
    gen_os.SetExternalPump([&] {
      relay_os.PollOnce();
      relay.Pump();
    });
    PdpixTransport link(gen_os, SocketType::kDatagram, {relay_addr}, sink_addr);
    EchoCodec packets(kPacketSize);
    auto result = RunLoad(link, packets, {kPackets, 200});
    PrintLatencyRow("Catnip (PDPIX relay)", result.latency, "zero-copy forward, no syscalls");
  }

  {
    // Catnap relay: the PDPIX relay application unchanged, over kernel sockets.
    CatnapPair pair;
    const SocketAddress relay_addr = Loopback(UniquePort());
    const SocketAddress sink_addr = Loopback(UniquePort());
    UdpRelayApp relay(*pair.server, RelayOptions{relay_addr, sink_addr});
    pair.client->SetExternalPump([&] {
      pair.server->PollOnce();
      relay.Pump();
    });
    PdpixTransport link(*pair.client, SocketType::kDatagram, {relay_addr}, sink_addr);
    EchoCodec packets(kPacketSize);
    auto result = RunLoad(link, packets, {kPackets / 2, 100});
    PrintLatencyRow("Catnap (PDPIX relay)", result.latency, "same app, kernel datapath");
  }
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
