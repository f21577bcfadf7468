// TURN-style UDP relay (paper §7.4) over Catnip: a traffic generator sends packets to the
// relay, which forwards them to a sink; the generator measures one-hop relay latency — the
// per-packet CPU cost that dominates a large relay fleet's bill.

#include <cstdio>

#include "src/apps/load_driver.h"
#include "src/apps/udp_relay.h"
#include "src/liboses/catnip.h"

int main() {
  using namespace demi;

  MonotonicClock clock;
  SimNetwork network(LinkConfig{}, 21);
  const Ipv4Addr relay_ip = Ipv4Addr::FromOctets(10, 0, 0, 1);
  const Ipv4Addr gen_ip = Ipv4Addr::FromOctets(10, 0, 0, 2);

  Catnip relay_os(network, Catnip::Config{MacAddr{0x1}, relay_ip, TcpConfig{}, nullptr}, clock);
  Catnip gen_os(network, Catnip::Config{MacAddr{0x2}, gen_ip, TcpConfig{}, nullptr}, clock);

  const SocketAddress relay_addr{relay_ip, 3478};  // TURN's well-known port
  const SocketAddress sink_addr{gen_ip, 9999};
  UdpRelayApp relay(relay_os, RelayOptions{relay_addr, sink_addr});
  gen_os.SetExternalPump([&] {
    relay_os.PollOnce();
    relay.Pump();
  });

  // The generator's socket is the sink: bound to the relay's target, connected to the relay.
  PdpixTransport link(gen_os, SocketType::kDatagram, {relay_addr}, sink_addr);
  EchoCodec packets(172);  // a typical audio RTP packet
  auto result = RunLoad(link, packets, {.operations = 20000, .warmup = 500});

  std::printf("relayed %llu packets (%llu lost)\n",
              static_cast<unsigned long long>(relay.stats().forwarded),
              static_cast<unsigned long long>(result.errors));
  std::printf("generator->relay->sink latency: mean %.2f us, p99 %.2f us\n",
              result.latency.Mean() / 1e3, static_cast<double>(result.latency.P99()) / 1e3);
  return 0;
}
