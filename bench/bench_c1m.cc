// C1M: one Catnip shard ramped to a million concurrent TCP connections (docs/SCALING.md).
//
// The scaling claims under test, per decade of the flow ramp (10k -> 100k -> 1M):
//   - per-connection server memory stays flat (hot-only TCBs in the slab + flow-table slots);
//   - packet-to-app echo latency does not degrade with the live-flow population (the flow
//     table is O(1), timers live in the O(1) wheel, idle connections cost no CPU);
//   - the ramp itself allocates nothing transient per half-open handshake (SYN cookies).
//
// Topology: the server is a bare TcpStack (no libOS wrapper) with syn_cookies on and a
// pre-sized flow table. The client side is NOT a peer stack — a million client TCBs would
// double the footprint and muddy the measurement — but a stateless load generator: a raw
// SimNic whose SYN/ACK/data segments this harness crafts and parses directly, like a DPDK
// packet generator. Echo latency is wall-clock time around the full virtual datapath
// (client NIC -> wire -> server eth/tcp -> app pop+push -> wire -> client NIC) with the
// VirtualClock advanced only to frame-delivery times, so timers never fire spuriously.
//
// Modes:
//   --quick   100k-flow ramp + gate assertions (the perf_smoke_c1m ctest gate)
//   (none)    full 1M ramp, report-only (EXPERIMENTS.md results)
//
// Self-skips (exit 0) on hosts without enough available memory for an honest run.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/net/tcp/tcp.h"
#include "src/netsim/sim_network.h"

namespace demi {
namespace {

constexpr MacAddr kServerMac{0x51};
constexpr MacAddr kClientMac{0xC1};
constexpr Ipv4Addr kServerIp = Ipv4Addr::FromOctets(10, 20, 255, 1);
constexpr uint16_t kServerPort = 7000;
constexpr uint32_t kClientIss = 0x01000000;  // + flow id
constexpr size_t kEchoBytes = 64;

// flow id -> the load generator's (ip, port). 256 ports per client IP: a full 1M ramp uses
// 3907 source IPs, the realistic many-clients shape (and exactly what RSS/cookies hash over).
Ipv4Addr FlowIp(size_t flow) {
  const uint32_t idx = static_cast<uint32_t>(flow >> 8);
  return Ipv4Addr::FromOctets(10, 20, static_cast<uint8_t>(idx >> 8),
                              static_cast<uint8_t>(idx & 0xFF));
}
uint16_t FlowPort(size_t flow) { return static_cast<uint16_t>(20000 + (flow & 0xFF)); }
size_t FlowFromAddr(Ipv4Addr ip, uint16_t port) {
  const uint32_t idx = ip.value & 0xFFFF;
  return (static_cast<size_t>(idx) << 8) | (port - 20000u);
}

long long MemAvailableKb() {
  FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "MemAvailable: %lld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb;
}

long long RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return -1;
  }
  long long pages_total = 0;
  long long pages_rss = 0;
  const int n = std::fscanf(f, "%lld %lld", &pages_total, &pages_rss);
  std::fclose(f);
  return n == 2 ? pages_rss * 4096 : -1;
}

struct C1mWorld {
  explicit C1mWorld(TcpConfig cfg)
      : net(LinkConfig{}, /*seed=*/1),
        server_nic(net, kServerMac, clock),
        alloc(server_nic.registrar()),
        sched(clock),
        eth(server_nic, kServerIp),
        tcp(eth, sched, alloc, clock, cfg),
        client_nic(net, kClientMac, clock) {}

  // Serializes one crafted TCP frame onto the wire toward the server. Checksums are skipped:
  // the stack runs in its default checksum-offload mode (device-validated RX).
  void DeliverToServer(const TcpHeader& h, Ipv4Addr src, std::span<const uint8_t> payload) {
    Ipv4Header ip;
    ip.protocol = IpProto::kTcp;
    ip.src = src;
    ip.dst = kServerIp;
    ip.total_length =
        static_cast<uint16_t>(Ipv4Header::kSize + h.SerializedSize() + payload.size());
    WireFrame f(EthernetHeader::kSize + ip.total_length);
    EthernetHeader{kServerMac, kClientMac, EtherType::kIpv4}.Serialize(f.data());
    ip.Serialize(f.data() + EthernetHeader::kSize, /*compute_checksum=*/false);
    uint8_t* l4 = f.data() + EthernetHeader::kSize + Ipv4Header::kSize;
    h.Serialize(l4, src, kServerIp, payload, /*compute_checksum=*/false);
    if (!payload.empty()) {
      std::memcpy(l4 + h.SerializedSize(), payload.data(), payload.size());
    }
    net.Deliver(kClientMac, kServerMac, std::move(f), clock.Now());
  }

  // Drains the load generator's NIC into `rx` (TCP headers + payload sizes only).
  struct RxSeg {
    TcpHeader hdr;
    Ipv4Addr dst_ip;  // the spoofed client this reply addresses
    size_t payload = 0;
  };
  size_t CaptureClient() {
    std::array<WireFrame, 64> burst;
    size_t total = 0;
    for (;;) {
      const size_t n =
          client_nic.RxBurst(std::span<WireFrame>(burst.data(), burst.size()), clock.Now());
      for (size_t i = 0; i < n; i++) {
        const WireFrame& f = burst[i];
        if (f.size() < EthernetHeader::kSize + Ipv4Header::kSize) {
          continue;
        }
        auto ip = Ipv4Header::Parse(
            {f.data() + EthernetHeader::kSize, f.size() - EthernetHeader::kSize},
            /*verify=*/false);
        if (!ip.has_value() || ip->protocol != IpProto::kTcp) {
          continue;  // ARP or junk: the generator only tracks TCP
        }
        std::span<const uint8_t> l4{f.data() + EthernetHeader::kSize + Ipv4Header::kSize,
                                    f.size() - EthernetHeader::kSize - Ipv4Header::kSize};
        size_t hdr_len = 0;
        auto tcp_hdr = TcpHeader::Parse(l4, kServerIp, ip->dst, &hdr_len, /*verify=*/false);
        if (!tcp_hdr.has_value()) {
          continue;
        }
        rx.push_back(RxSeg{*tcp_hdr, ip->dst, l4.size() - hdr_len});
      }
      total += n;
      if (n < burst.size()) {
        return total;
      }
    }
  }

  // Polls the world until nothing is runnable and no frame is in flight. Virtual time only
  // advances to delivery instants — never to timer deadlines, so an idle million-flow
  // population must truly cost zero CPU for this to return.
  void PumpQuiet() {
    for (int i = 0; i < 50'000'000; i++) {
      size_t activity = eth.PollOnce(clock.Now());
      sched.Poll();
      activity += CaptureClient();
      if (activity != 0) {
        continue;
      }
      const TimeNs next = net.NextDeliveryTime();
      if (next == 0) {
        return;
      }
      if (next > clock.Now()) {
        clock.SetTime(next);
      }
    }
    std::fprintf(stderr, "bench_c1m: world did not quiesce\n");
    std::abort();
  }

  VirtualClock clock;
  SimNetwork net;
  SimNic server_nic;
  PoolAllocator alloc;
  Scheduler sched;
  EthernetLayer eth;
  TcpStack tcp;
  SimNic client_nic;  // stateless load generator: polled raw, no stack behind it
  std::vector<RxSeg> rx;
};

struct BenchState {
  C1mWorld* w = nullptr;
  TcpListener* listener = nullptr;
  std::vector<std::shared_ptr<TcpConnection>> conns;  // index == flow id
  std::vector<uint32_t> srv_iss;                      // cookie ISS per flow, from the SYN-ACK
  std::vector<uint32_t> echo_rounds;                  // completed echo rounds per flow
};

// Ramps the established-connection count to `target` in handshake batches: SYN out,
// SYN-ACK parsed (recording the cookie ISS), ACK back, listener drained.
void RampTo(BenchState& st, size_t target) {
  C1mWorld& w = *st.w;
  constexpr size_t kBatch = 256;
  st.srv_iss.resize(target, 0);
  st.echo_rounds.resize(target, 0);
  st.conns.reserve(target);
  while (st.conns.size() < target) {
    const size_t begin = st.conns.size();
    const size_t n = std::min(kBatch, target - begin);
    for (size_t i = 0; i < n; i++) {
      const size_t flow = begin + i;
      TcpHeader syn;
      syn.src_port = FlowPort(flow);
      syn.dst_port = kServerPort;
      syn.seq = kClientIss + static_cast<uint32_t>(flow);
      syn.flags.syn = true;
      syn.window = 65535;
      syn.mss_option = 1460;
      w.DeliverToServer(syn, FlowIp(flow), {});
    }
    w.rx.clear();
    w.PumpQuiet();
    size_t acked = 0;
    for (const C1mWorld::RxSeg& seg : w.rx) {
      if (!seg.hdr.flags.syn || !seg.hdr.flags.ack) {
        continue;
      }
      const size_t flow = FlowFromAddr(seg.dst_ip, seg.hdr.dst_port);
      st.srv_iss[flow] = seg.hdr.seq;
      TcpHeader ack;
      ack.src_port = seg.hdr.dst_port;
      ack.dst_port = kServerPort;
      ack.seq = seg.hdr.ack;  // client iss + 1
      ack.ack = seg.hdr.seq + 1;
      ack.flags.ack = true;
      ack.window = 65535;
      w.DeliverToServer(ack, seg.dst_ip, {});
      acked++;
    }
    if (acked != n) {
      std::fprintf(stderr, "bench_c1m: batch at %zu: %zu/%zu SYN-ACKs seen\n", begin, acked, n);
      std::abort();
    }
    w.rx.clear();
    w.PumpQuiet();
    while (auto conn = st.listener->Accept()) {
      // Deterministic single-threaded world: accept order is injection order. Verify anyway —
      // the whole bench indexes per-flow state by that assumption.
      const size_t flow = st.conns.size();
      if (conn->remote().port != FlowPort(flow) || conn->remote().ip.value != FlowIp(flow).value) {
        std::fprintf(stderr, "bench_c1m: accept order broke at flow %zu\n", flow);
        std::abort();
      }
      st.conns.push_back(std::move(conn));
    }
    if (st.conns.size() != begin + n) {
      std::fprintf(stderr, "bench_c1m: %zu/%zu handshakes completed at %zu\n",
                   st.conns.size() - begin, n, begin);
      std::abort();
    }
  }
}

// One echo round on `flow`: 64 B in, server app pops and pushes it back, 64 B out, final ack.
// Returns the wall-clock nanoseconds from frame injection to echo arrival at the client NIC.
uint64_t EchoOnce(BenchState& st, size_t flow) {
  C1mWorld& w = *st.w;
  const uint32_t k = st.echo_rounds[flow]++;
  const uint32_t cli_seq = kClientIss + static_cast<uint32_t>(flow) + 1 + k * kEchoBytes;
  const uint32_t srv_seq = st.srv_iss[flow] + 1 + k * kEchoBytes;

  std::array<uint8_t, kEchoBytes> payload;
  for (size_t i = 0; i < kEchoBytes; i++) {
    payload[i] = static_cast<uint8_t>(flow ^ (k * 31) ^ i);
  }
  TcpHeader data;
  data.src_port = FlowPort(flow);
  data.dst_port = kServerPort;
  data.seq = cli_seq;
  data.ack = srv_seq;
  data.flags.ack = true;
  data.flags.psh = true;
  data.window = 65535;

  const auto t0 = std::chrono::steady_clock::now();
  w.rx.clear();
  w.DeliverToServer(data, FlowIp(flow), payload);
  w.PumpQuiet();

  // The server application: drain the readable connection, echo the bytes back.
  const std::shared_ptr<TcpConnection>& conn = st.conns[flow];
  size_t got = 0;
  while (auto buf = conn->PopData()) {
    got += buf->size();
  }
  if (got != kEchoBytes) {
    std::fprintf(stderr, "bench_c1m: flow %zu round %u: popped %zu bytes\n", flow, k, got);
    std::abort();
  }
  void* p = w.alloc.Alloc(kEchoBytes);
  std::memcpy(p, payload.data(), kEchoBytes);
  if (conn->Push(Buffer::FromApp(w.alloc, p, kEchoBytes)) != Status::kOk) {
    std::fprintf(stderr, "bench_c1m: push failed on flow %zu\n", flow);
    std::abort();
  }
  w.alloc.Free(p);
  w.PumpQuiet();

  bool echoed = false;
  for (const C1mWorld::RxSeg& seg : w.rx) {
    if (seg.payload == kEchoBytes && seg.hdr.dst_port == FlowPort(flow)) {
      echoed = true;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (!echoed) {
    std::fprintf(stderr, "bench_c1m: no echo back on flow %zu round %u\n", flow, k);
    std::abort();
  }

  // Ack the echo so the server's retransmit timer disarms and the flow goes fully idle again.
  TcpHeader ack;
  ack.src_port = FlowPort(flow);
  ack.dst_port = kServerPort;
  ack.seq = cli_seq + kEchoBytes;
  ack.ack = srv_seq + kEchoBytes;
  ack.flags.ack = true;
  ack.window = 65535;
  w.rx.clear();
  w.DeliverToServer(ack, FlowIp(flow), {});
  w.PumpQuiet();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

struct DecadeReport {
  size_t flows = 0;
  double bytes_per_conn = 0;
  uint64_t echo_p50 = 0;
  uint64_t echo_p99 = 0;
};

DecadeReport RunDecade(BenchState& st, size_t flows, int echo_samples) {
  RampTo(st, flows);
  C1mWorld& w = *st.w;

  // Echo over flows spread across the whole population (cold cache lines, varied table
  // slots), several rounds each for a stable tail.
  Histogram lat;
  const size_t kSpread = 64;
  for (int i = 0; i < echo_samples; i++) {
    const size_t flow = (flows / kSpread) * (static_cast<size_t>(i) % kSpread);
    lat.Record(EchoOnce(st, flow));
  }

  DecadeReport r;
  r.flows = flows;
  r.bytes_per_conn = static_cast<double>(w.tcp.TcbBytesReserved()) / static_cast<double>(flows);
  r.echo_p50 = lat.P50();
  r.echo_p99 = lat.P99();
  std::printf(
      "flows=%-8zu bytes/conn=%-7.1f slab_live=%-8zu wheel_armed=%-4zu rss_mb=%-6lld "
      "echo_ns avg=%-7.0f p50=%-7" PRIu64 " p99=%-7" PRIu64 "\n",
      flows, r.bytes_per_conn, w.tcp.tcb_slab().live(), w.sched.timer_wheel().armed(),
      RssBytes() / (1024 * 1024), lat.Mean(), r.echo_p50, r.echo_p99);
  return r;
}

int Run(bool quick) {
  // A full ramp reserves ~310 MB inside the stack plus harness bookkeeping; refuse to swap.
  const long long need_kb = quick ? 512 * 1024 : 2 * 1024 * 1024;
  const long long avail_kb = MemAvailableKb();
  if (avail_kb >= 0 && avail_kb < need_kb) {
    std::printf("bench_c1m: skipped (MemAvailable %lld kB < %lld kB needed)\n", avail_kb,
                need_kb);
    return 0;
  }

  const size_t top = quick ? 100'000 : 1'000'000;
  TcpConfig cfg;
  cfg.syn_cookies = true;  // the ramp is a million half-open handshakes; keep them stateless
  cfg.flow_table_capacity = quick ? (1u << 18) : (1u << 21);  // pre-sized: no rehash mid-ramp
  C1mWorld w(cfg);
  // The generator's source IPs resolve to its MAC up front: ARP traffic is not under test.
  for (size_t flow = 0; flow < top; flow += 256) {
    w.eth.arp().Insert(FlowIp(flow), kClientMac);
  }

  BenchState st;
  st.w = &w;
  auto listener = w.tcp.Listen(kServerPort, /*backlog=*/1024);
  if (!listener.ok()) {
    std::fprintf(stderr, "bench_c1m: listen failed\n");
    return 1;
  }
  st.listener = *listener;

  std::printf("bench_c1m: ramping to %zu flows (%s mode)\n", top, quick ? "quick" : "full");
  std::vector<DecadeReport> reports;
  const int samples = quick ? 512 : 1024;
  for (size_t flows : {size_t{10'000}, size_t{100'000}, size_t{1'000'000}}) {
    if (flows > top) {
      break;
    }
    reports.push_back(RunDecade(st, flows, samples));
  }

  // Ramp-wide invariants, any mode: cookies made every handshake stateless, and the
  // pre-sized flow table never rehashed.
  const TcpStack::Stats& ts = w.tcp.stats();
  if (ts.syn_cookies_validated != top || w.tcp.NumConnections() != top) {
    std::fprintf(stderr, "bench_c1m FAILED: %" PRIu64 " validated / %zu connections\n",
                 ts.syn_cookies_validated, w.tcp.NumConnections());
    return 1;
  }
  if (w.tcp.flow_table().stats().grows != 0) {
    std::fprintf(stderr, "bench_c1m FAILED: flow table rehashed during a pre-sized ramp\n");
    return 1;
  }

  if (quick) {
    // Gate thresholds are deliberately loose (2x-ish headroom on the reference container) so
    // machine variance doesn't flake CI while real regressions — a fatter TCB, a rehash in
    // the ramp, O(n) behavior in the datapath — trip them hard.
    const DecadeReport& final_decade = reports.back();
    if (final_decade.bytes_per_conn > 1024.0) {
      std::fprintf(stderr, "bench_c1m FAILED: %.1f bytes/conn exceeds the 1 KB budget\n",
                   final_decade.bytes_per_conn);
      return 1;
    }
    if (final_decade.echo_p99 > 2'000'000) {
      std::fprintf(stderr,
                   "bench_c1m FAILED: echo p99 %" PRIu64 " ns at %zu flows (gate: 2 ms)\n",
                   final_decade.echo_p99, final_decade.flows);
      return 1;
    }
    std::printf("perf-smoke c1m OK\n");
  }
  return 0;
}

}  // namespace
}  // namespace demi

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  return demi::Run(quick);
}
