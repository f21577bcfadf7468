// Figure 5 reproduction: unloaded echo RTTs, 64 B messages, one closed-loop client.
//
// Paper result (their hardware): Linux 30.4 µs, Catnap 16.9 µs, Catmint 5.3 µs, Catnip UDP
// 6.0 µs, Catnip TCP 7.1 µs, eRPC 5.8 µs, raw DPDK 6.6/4.8-ish, raw RDMA ~4-5 µs; Demikernel
// in-OS time ≈ 50-250 ns per I/O. Absolute numbers here differ (simulated fabric, shared-memory
// "wire"), but the ordering must hold: kernel path ≫ Catnap ≫ portable kernel-bypass libOSes ≈
// specialized RPC ≈ raw device access, with ns-scale per-I/O Demikernel overhead.

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "src/apps/minirpc.h"
#include "src/netsim/sim_rdma.h"

namespace demi {
namespace bench {
namespace {

constexpr size_t kMsgSize = 64;
constexpr uint64_t kIters = 20000;

Histogram PosixEchoRtt() {
  std::atomic<bool> stop{false};
  const SocketAddress addr = Loopback(UniquePort());
  std::atomic<bool> up{false};
  std::thread server([&] {
    up = true;
    RunPosixEchoServer(EchoServerOptions{addr, SocketType::kStream}, stop, nullptr);
  });
  while (!up) {
  }
  LoadResult result;
  {
    PosixTransport link(SocketType::kStream, {addr});
    EchoCodec echo(kMsgSize);
    result = RunLoad(link, echo, {kIters / 4, 200});  // the kernel path is slow; keep it bounded
  }
  stop = true;
  server.join();
  return result.latency;
}

// testpmd-equivalent: raw L2 frames through the fabric, no stack, no OS services.
Histogram RawNicRtt() {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  SimNic server(net, kServerMac, clock);
  SimNic client(net, kClientMac, clock);
  Histogram rtt;
  uint8_t payload[kMsgSize] = {0};
  WireFrame rx[4];
  for (uint64_t i = 0; i < kIters + 200; i++) {
    const TimeNs start = clock.Now();
    std::span<const uint8_t> seg(payload, sizeof(payload));
    (void)client.TxBurst(kServerMac, {&seg, 1});  // lossless sim link; benches measure the success path
    // "Server": L2 forwarder echoing the frame (testpmd's io mode).
    bool done = false;
    while (!done) {
      size_t n = server.RxBurst(rx, clock.Now());
      for (size_t j = 0; j < n; j++) {
        std::span<const uint8_t> echo(rx[j]);
        (void)server.TxBurst(kClientMac, {&echo, 1});  // lossless sim link; benches measure the success path
      }
      n = client.RxBurst(rx, clock.Now());
      done = n > 0;
    }
    if (i >= 200) {
      rtt.Record(clock.Now() - start);
    }
  }
  return rtt;
}

// perftest-equivalent: RDMA send/recv ping-pong directly on the device.
Histogram RawRdmaRtt() {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  SimRdmaDevice server(net, kServerMac, clock);
  SimRdmaDevice client(net, kClientMac, clock);
  (void)server.CreateQp(1);
  (void)client.CreateQp(1);
  std::vector<uint8_t> srv_buf(kMsgSize);
  std::vector<uint8_t> cli_buf(kMsgSize);
  std::vector<uint8_t> msg(kMsgSize, 1);
  server.RegisterMemory(srv_buf.data(), srv_buf.size());
  client.RegisterMemory(cli_buf.data(), cli_buf.size());
  client.RegisterMemory(msg.data(), msg.size());
  server.RegisterMemory(msg.data(), msg.size());

  Histogram rtt;
  RdmaCompletion comps[4];
  for (uint64_t i = 0; i < kIters + 200; i++) {
    (void)server.PostRecv(1, srv_buf.data(), kMsgSize, 0);  // lossless sim link; benches measure the success path
    (void)client.PostRecv(1, cli_buf.data(), kMsgSize, 0);  // lossless sim link; benches measure the success path
    const TimeNs start = clock.Now();
    std::span<const uint8_t> seg(msg);
    (void)client.PostSend(1, kServerMac, 1, {&seg, 1}, 0);  // lossless sim link; benches measure the success path
    // Server pong.
    bool served = false;
    while (!served) {
      const size_t n = server.PollCq(comps, clock.Now());
      for (size_t j = 0; j < n; j++) {
        if (comps[j].type == RdmaCompletion::Type::kRecv) {
          std::span<const uint8_t> pong(srv_buf.data(), kMsgSize);
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
    if (i >= 200) {
      rtt.Record(clock.Now() - start);
    }
  }
  return rtt;
}

Histogram MiniRpcRtt() {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  MiniRpcServer server(net, kServerMac, clock,
                       [](std::span<const uint8_t> req, std::span<uint8_t> resp) {
                         std::memcpy(resp.data(), req.data(), req.size());
                         return req.size();
                       });
  MiniRpcClient client(net, kClientMac, kServerMac, clock);
  client.SetPump([&] { server.PollOnce(); });
  Histogram lat;
  client.RunClosedLoopWindow(kMsgSize, /*depth=*/1, /*duration=*/0, nullptr);  // no-op warm
  std::vector<uint8_t> req(kMsgSize, 2);
  for (int w = 0; w < 200; w++) {
    client.Call(req);
  }
  for (uint64_t i = 0; i < kIters; i++) {
    const TimeNs start = clock.Now();
    client.Call(req);
    lat.Record(clock.Now() - start);
  }
  return lat;
}

}  // namespace

void Main() {
  PrintHeader("Figure 5: echo RTT, 64 B, single closed-loop client",
              "Linux 30.4us > Catnap 16.9us > Catnip TCP 7.1 / UDP 6.0 > Catmint 5.3 ~ eRPC "
              "5.8 ~ raw devices; per-I/O Demikernel overhead ~50-250ns");

  const Histogram raw_nic = RawNicRtt();
  const Histogram raw_rdma = RawRdmaRtt();

  PrintLatencyRow("Linux (POSIX/kernel TCP)", PosixEchoRtt(), "kernel path baseline");

  {
    CatnapPair pair;
    const SocketAddress addr = Loopback(UniquePort());
    auto r = DuetEcho({*pair.server, *pair.client, addr, SocketType::kStream}, kMsgSize, kIters / 4);
    PrintLatencyRow("Catnap (POSIX libOS)", r.latency, "polls read(), no epoll sleep");
  }
  {
    CatmintPair pair;
    auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5201}}, kMsgSize, kIters);
    PrintLatencyRow("Catmint (RDMA libOS)", r.latency, "device does the transport");
  }
  {
    CatnipPair pair;
    auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5202}, SocketType::kDatagram},
                      kMsgSize, kIters);
    PrintLatencyRow("Catnip UDP (DPDK libOS)", r.latency, "userspace UDP stack");
  }
  // Observability demo: record a scheduler/packet trace on the TCP client for its run, then
  // dump its metrics registry after the table (docs/OBSERVABILITY.md walks through reading
  // both).
  CatnipPair tcp_pair;
  tcp_pair.client->tracer().Enable(4096);
  {
    auto r = DuetEcho({*tcp_pair.server, *tcp_pair.client, {kServerIp, 5203},
                       SocketType::kStream},
                      kMsgSize, kIters);
    const double per_io_ns = (r.latency.Mean() - raw_nic.Mean()) / 4.0;
    char note[96];
    std::snprintf(note, sizeof(note), "userspace TCP; Demikernel overhead ~%.0f ns per I/O",
                  per_io_ns);
    PrintLatencyRow("Catnip TCP (DPDK libOS)", r.latency, note);
  }
  PrintLatencyRow("MiniRpc (eRPC-like)", MiniRpcRtt(), "specialized, not portable");
  PrintLatencyRow("raw SimNic (testpmd-like)", raw_nic, "no stack, L2 forward");
  PrintLatencyRow("raw SimRdma (perftest-like)", raw_rdma, "device send/recv only");

  DumpMetrics("Catnip TCP client after Fig.5 run", *tcp_pair.client);
  const char* trace_path = "fig5_catnip_tcp_trace.json";
  const size_t events = ExportTraceJson(*tcp_pair.client, trace_path);
  std::printf("\ntrace: %zu events held (%llu recorded, %llu dropped by ring) -> %s\n", events,
              static_cast<unsigned long long>(tcp_pair.client->tracer().total_recorded()),
              static_cast<unsigned long long>(tcp_pair.client->tracer().dropped()), trace_path);
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
