// §6.3 microbenchmarks: Catnip TCP fast-path costs.
//
// The paper's claim: "Catnip can process an incoming TCP packet and dispatch it to the waiting
// application coroutine in 53 ns". We measure the analogous quantities: header serialize/parse
// with checksum, the full in-order receive fast path (frame -> eth -> ip -> tcp -> ready queue
// -> app wake), and the inline push-transmit path, all on a VirtualClock so only CPU work is
// timed (no simulated wire latency is attributed to the stack).
//
// Rows that time one call inside an iteration with untimed setup bracket that call with a
// steady_clock pair and report it through UseManualTime: google-benchmark's PauseTiming/
// ResumeTiming costs hundreds of ns per pair, more than the call itself. Two control rows
// show what each bracket adds: an empty pause/resume pair, and an empty steady_clock pair.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/liboses/catnip.h"
#include "src/net/ethernet.h"
#include "src/net/headers.h"
#include "src/net/tcp/tcp.h"
#include "src/netsim/sim_network.h"
#include "src/observability/metrics.h"

namespace demi {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void BM_TcpHeaderSerialize(benchmark::State& state) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 1, 1, 1);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(2, 2, 2, 2);
  std::vector<uint8_t> payload(64, 7);
  TcpHeader h;
  h.src_port = 1;
  h.dst_port = 2;
  h.flags.ack = true;
  uint8_t out[64];
  for (auto _ : state) {
    h.Serialize(out, src, dst, payload);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_TcpHeaderSerialize);

void BM_TcpHeaderParse(benchmark::State& state) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 1, 1, 1);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(2, 2, 2, 2);
  std::vector<uint8_t> payload(64, 7);
  TcpHeader h;
  h.src_port = 1;
  h.dst_port = 2;
  h.flags.ack = true;
  std::vector<uint8_t> wire(h.SerializedSize() + payload.size());
  h.Serialize(wire.data(), src, dst, payload);
  std::memcpy(wire.data() + h.SerializedSize(), payload.data(), payload.size());
  size_t hdr_len;
  for (auto _ : state) {
    auto parsed = TcpHeader::Parse(wire, src, dst, &hdr_len);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_TcpHeaderParse);

void BM_ChecksumThroughput(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x3C);
  for (auto _ : state) {
    InternetChecksum sum;
    sum.Add(data);
    benchmark::DoNotOptimize(sum.Finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumThroughput)->Arg(64)->Arg(1460)->Arg(65536);

// The other per-byte integrity check on the datapath: the log record CRC-32 (slice-by-8) that
// every storage append and read computes — a ~710 B MiniKv SET record, a 4 KB block, and a
// 48 KB splice batch.
void BM_Crc32Throughput(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x3C);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Throughput)->Arg(710)->Arg(4096)->Arg(49152);

// Full established-connection fixture over the fabric on a VirtualClock.
struct TcpFixture {
  explicit TcpFixture(TcpConfig cfg = TcpConfig{})
      : net(LinkConfig{.latency = 0}, 1),
        a_nic(net, MacAddr{1}, clock),
        b_nic(net, MacAddr{2}, clock),
        a_alloc(a_nic.registrar()),
        b_alloc(b_nic.registrar()),
        a_sched(clock),
        b_sched(clock),
        a_eth(a_nic, Ipv4Addr::FromOctets(10, 0, 0, 1)),
        b_eth(b_nic, Ipv4Addr::FromOctets(10, 0, 0, 2)),
        a_tcp(a_eth, a_sched, a_alloc, clock, cfg),
        b_tcp(b_eth, b_sched, b_alloc, clock, cfg) {
    a_eth.arp().Insert(Ipv4Addr::FromOctets(10, 0, 0, 2), MacAddr{2});
    b_eth.arp().Insert(Ipv4Addr::FromOctets(10, 0, 0, 1), MacAddr{1});
    auto listener = b_tcp.Listen(80, 8);
    auto conn = a_tcp.Connect(SocketAddress{Ipv4Addr::FromOctets(10, 0, 0, 2), 80});
    client = *conn;
    for (int i = 0; i < 1000 && !(*listener)->HasPending(); i++) {
      Step();
    }
    server = (*listener)->Accept();
  }

  void Step() {
    a_eth.PollOnce(clock.Now());
    b_eth.PollOnce(clock.Now());
    a_sched.Poll();
    b_sched.Poll();
    clock.Advance(100);
  }

  VirtualClock clock;
  SimNetwork net;
  SimNic a_nic, b_nic;
  PoolAllocator a_alloc, b_alloc;
  Scheduler a_sched, b_sched;
  EthernetLayer a_eth, b_eth;
  TcpStack a_tcp, b_tcp;
  std::shared_ptr<TcpConnection> client;
  std::shared_ptr<TcpConnection> server;
};

// One in-order 64 B data segment: push on the client, receive fast path + app-wake + ack and
// the client's ack processing — a full stack round per iteration, CPU cost only.
void BM_TcpInOrderSegmentRound(benchmark::State& state) {
  TcpFixture fx;
  for (auto _ : state) {
    void* p = fx.a_alloc.Alloc(64);
    (void)fx.client->Push(Buffer::FromApp(fx.a_alloc, p, 64));  // lossless sim link; benches measure the success path
    fx.a_alloc.Free(p);
    while (!fx.server->HasReadyData()) {
      fx.Step();
    }
    auto data = fx.server->PopData();
    benchmark::DoNotOptimize(data);
    // Let acks drain so windows never bind.
    fx.Step();
  }
  state.SetLabel("full push->receive->pop round, both stacks");
}
BENCHMARK(BM_TcpInOrderSegmentRound);

// One receive-fast-path step: the client pushes its next in-order 64 B segment, the frame is
// captured off B's NIC before B's stack sees it, `deliver` hands it to B's TCP stack, and then
// B's data is popped and its ack flows back. While waiting for the frame the loop keeps B's
// scheduler (the delayed-ack timer) and A's stack running: without B's acks the client's
// window closes and the frame never comes.
template <typename Deliver>
void ReceiveNextSegment(TcpFixture& fx, Deliver&& deliver) {
  void* p = fx.a_alloc.Alloc(64);
  (void)fx.client->Push(Buffer::FromApp(fx.a_alloc, p, 64));  // lossless sim link; benches measure the success path
  fx.a_alloc.Free(p);
  WireFrame frames[4];
  for (;;) {
    fx.clock.Advance(100);
    if (fx.b_nic.RxBurst(frames, fx.clock.Now()) > 0) {
      break;
    }
    fx.b_sched.Poll();
    fx.a_eth.PollOnce(fx.clock.Now());
    fx.a_sched.Poll();
  }
  // The NIC offloads checksums (none are written), so parse without verification.
  auto iph = Ipv4Header::Parse(std::span<const uint8_t>(frames[0]).subspan(14), false);
  auto l4 = std::span<const uint8_t>(frames[0]).subspan(14 + 20, iph->total_length - 20);
  deliver(*iph, l4);
  fx.server->PopData();
  fx.b_sched.Poll();  // the timer wheel sends B's pending ack
  fx.a_eth.PollOnce(fx.clock.Now());
  fx.a_sched.Poll();
}

// Isolates the receiver's fast path: in-order segments produced by the client's real stack
// fed straight into OnIpv4Packet — the '53 ns per packet' quantity (parse + state machine +
// ready-queue append + app wake), without the sender's costs.
void BM_TcpReceiveFastPath(benchmark::State& state) {
  TcpFixture fx;
  {
    // Discover rcv_nxt by sending one real segment.
    void* p = fx.a_alloc.Alloc(64);
    (void)fx.client->Push(Buffer::FromApp(fx.a_alloc, p, 64));  // lossless sim link; benches measure the success path
    fx.a_alloc.Free(p);
    while (!fx.server->HasReadyData()) {
      fx.Step();
    }
    fx.server->PopData();
  }
  for (auto _ : state) {
    // Time ONLY the receiver's processing of the captured segment.
    ReceiveNextSegment(fx, [&](const Ipv4Header& ip, std::span<const uint8_t> l4) {
      const TimeNs now = fx.clock.Now();  // the poll's time, read before the timed call
      const auto t0 = std::chrono::steady_clock::now();
      fx.b_tcp.OnIpv4Packet(ip, l4, now);  // <-- the timed fast path
      state.SetIterationTime(Seconds(std::chrono::steady_clock::now() - t0));
    });
  }
  state.SetLabel("receiver OnIpv4Packet only (paper: ~53ns/pkt)");
}
// Fixed iteration count: the timed section is tens of ns but each iteration's untimed segment
// production costs microseconds, so min_time-driven runs would take hours.
BENCHMARK(BM_TcpReceiveFastPath)->Iterations(20000)->UseManualTime();

// Inline transmit: the cost of Push carving+sending one MSS-sized segment (error-free path).
void BM_TcpInlinePush(benchmark::State& state) {
  TcpFixture fx;
  for (auto _ : state) {
    const uint64_t target = fx.server->conn_stats().bytes_received + 1400;
    void* p = fx.a_alloc.Alloc(1400);
    Buffer buf = Buffer::FromApp(fx.a_alloc, p, 1400);
    const auto t0 = std::chrono::steady_clock::now();
    (void)fx.client->Push(std::move(buf));  // lossless sim link; benches measure the success path
    state.SetIterationTime(Seconds(std::chrono::steady_clock::now() - t0));
    fx.a_alloc.Free(p);
    while (fx.server->conn_stats().bytes_received < target) {
      fx.Step();
    }
    while (fx.server->HasReadyData()) {
      fx.server->PopData();
    }
    // Drain acks back to the sender.
    for (int i = 0; i < 4; i++) {
      fx.Step();
    }
  }
  state.SetLabel("inline run-to-completion push, 1400B");
}
BENCHMARK(BM_TcpInlinePush)->UseManualTime();

// Frozen time at the price of a live clock read: Now() reads steady_clock as MonotonicClock
// does, but returns a time that only the bench advances. An idle pair then stays idle (its
// delayed-ack timer never comes due) while each poll pays what a live poll pays for a read.
class FrozenHostClock final : public Clock {
 public:
  TimeNs Now() const override {
    benchmark::DoNotOptimize(std::chrono::steady_clock::now());
    return now_;
  }
  void Advance(DurationNs d) { now_ += d; }

 private:
  TimeNs now_ = kSecond;
};

// A Catnip client and server on one frozen-clock fabric, with the server's queue `sqd` and
// the client's `cqd`: a connected TCP pair (the server's accepted queue), or with
// SocketType::kDatagram a UDP socket bound to the server's port 80 and an unbound client
// socket. `msg` is a 64 B client heap buffer.
struct CatnipPair {
  FrozenHostClock clock;
  SimNetwork net{LinkConfig{}, 1};
  Ipv4Addr server_ip = Ipv4Addr::FromOctets(10, 0, 0, 1);
  Ipv4Addr client_ip = Ipv4Addr::FromOctets(10, 0, 0, 2);
  Catnip server{net, Catnip::Config{MacAddr{1}, server_ip, TcpConfig{}, nullptr}, clock};
  Catnip client{net, Catnip::Config{MacAddr{2}, client_ip, TcpConfig{}, nullptr}, clock};
  QueueDesc sqd = 0;
  QueueDesc cqd = 0;
  void* msg = nullptr;

  explicit CatnipPair(const char* bench, SocketType type = SocketType::kStream)
      : bench_(bench) {
    server.ethernet().arp().Insert(client_ip, MacAddr{2});
    client.ethernet().arp().Insert(server_ip, MacAddr{1});
    msg = client.DmaMalloc(64);
    std::memset(msg, 'x', 64);
    if (type == SocketType::kDatagram) {
      sqd = *server.Socket(SocketType::kDatagram);
      (void)server.Bind(sqd, {server_ip, 80});
      cqd = *client.Socket(SocketType::kDatagram);
      return;
    }
    const QueueDesc lqd = *server.Socket(SocketType::kStream);
    (void)server.Bind(lqd, {server_ip, 80});  // a fresh fabric: the setup path succeeds
    (void)server.Listen(lqd, 4);
    const QToken accept = *server.Accept(lqd);
    cqd = *client.Socket(SocketType::kStream);
    StepUntil(*client.Connect(cqd, {server_ip, 80}), client);
    sqd = StepUntil(accept, server).new_qd;
  }
  ~CatnipPair() { client.DmaFree(msg); }

  // Polls both sides until `qt` completes on `os`, and takes its (successful) result.
  QResult StepUntil(QToken qt, LibOS& os) {
    for (int i = 0; i < 100'000 && !os.IsDone(qt); i++) {
      server.PollOnce();
      client.PollOnce();
      clock.Advance(100);
    }
    return Take(qt, os);
  }
  QResult Take(QToken qt, LibOS& os) {
    auto r = os.TryTake(qt);
    if (!r.ok() || r->status != Status::kOk) {
      std::fprintf(stderr, "%s: an op failed\n", bench_);
      std::abort();
    }
    return *r;
  }

 private:
  const char* bench_;
};

// The fixed cost of one Catnip poll that finds nothing to do: the clock read, the timer
// wheel's not-due Advance, the call into the fast path, an empty NIC burst and the
// hooked-queue serve loop. The server has just received a 64 B segment and popped it, so its
// delayed-ack timer is armed, as it is between most polls of a TCP echo server.
void BM_CatnipIdlePoll(benchmark::State& state) {
  CatnipPair p("BM_CatnipIdlePoll");
  const QToken pop = *p.server.Pop(p.sqd);
  (void)p.client.Push(p.cqd, Sgarray::Of(p.msg, 64));  // inline push: completes in the call
  QResult r = p.StepUntil(pop, p.server);
  p.server.FreeSga(r.sga);
  p.clock.Advance(10 * kMicrosecond);  // every frame still on the wire lands
  p.server.PollOnce();
  p.client.PollOnce();
  for (const MetricsRegistry::Sample& m : p.server.metrics().Snapshot()) {
    if (m.name == "timerwheel.armed" && m.value != 1) {
      std::fprintf(stderr, "BM_CatnipIdlePoll: expected only the delayed-ack timer armed\n");
      std::abort();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.server.PollOnce());
  }
  state.SetLabel("idle Catnip::PollOnce, delayed-ack timer armed, steady_clock read");
}
BENCHMARK(BM_CatnipIdlePoll);

// One server poll that receives a 64 B segment and completes a pop armed before the data
// arrived: the NIC burst, TCP receive, the wake-up of the pop's queue and ServeHookedQueues,
// which completes the pop. Untimed around it: the pop and the client's push, then the
// delayed ack's round trip, so every timed poll starts from the same state.
void BM_CatnipHookedPop(benchmark::State& state) {
  CatnipPair p("BM_CatnipHookedPop");
  for (auto _ : state) {
    const QToken pop = *p.server.Pop(p.sqd);  // no data yet: the pop waits, hooked
    (void)p.client.Push(p.cqd, Sgarray::Of(p.msg, 64));
    p.clock.Advance(10 * kMicrosecond);  // the segment lands
    const auto t0 = std::chrono::steady_clock::now();
    p.server.PollOnce();  // <-- the timed poll
    state.SetIterationTime(Seconds(std::chrono::steady_clock::now() - t0));
    if (!p.server.IsDone(pop)) {
      std::fprintf(stderr, "BM_CatnipHookedPop: the poll did not complete the pop\n");
      std::abort();
    }
    QResult r = p.Take(pop, p.server);
    p.server.FreeSga(r.sga);
    p.clock.Advance(kTcpDelayedAckTimeout + 10 * kMicrosecond);
    p.server.PollOnce();  // the delayed ack goes out
    p.clock.Advance(10 * kMicrosecond);
    p.client.PollOnce();  // and reaches the client
  }
  state.SetLabel("Catnip::PollOnce that receives 64 B and completes a hooked pop");
}
BENCHMARK(BM_CatnipHookedPop)->UseManualTime();

// The UDP form of BM_CatnipHookedPop: one server poll that receives a 64 B datagram and
// completes a pop armed before it arrived, through the UDP socket's wait list. No TCP and no
// timer is involved; the client's push completes in the call.
void BM_CatnipHookedPopUdp(benchmark::State& state) {
  CatnipPair p("BM_CatnipHookedPopUdp", SocketType::kDatagram);
  for (auto _ : state) {
    const QToken pop = *p.server.Pop(p.sqd);  // no datagram yet: the pop waits, hooked
    const QToken push = *p.client.PushTo(p.cqd, Sgarray::Of(p.msg, 64), {p.server_ip, 80});
    p.clock.Advance(10 * kMicrosecond);  // the datagram lands
    const auto t0 = std::chrono::steady_clock::now();
    p.server.PollOnce();  // <-- the timed poll
    state.SetIterationTime(Seconds(std::chrono::steady_clock::now() - t0));
    if (!p.server.IsDone(pop) || !p.client.IsDone(push)) {
      std::fprintf(stderr, "BM_CatnipHookedPopUdp: the push or the pop did not complete\n");
      std::abort();
    }
    QResult r = p.Take(pop, p.server);
    p.server.FreeSga(r.sga);
    (void)p.Take(push, p.client);
  }
  state.SetLabel("Catnip::PollOnce that receives a 64 B datagram and completes a hooked pop");
}
BENCHMARK(BM_CatnipHookedPopUdp)->UseManualTime();

// Control: what one empty PauseTiming/ResumeTiming pair adds to an iteration.
void BM_PauseResumeControl(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    state.ResumeTiming();
  }
  state.SetLabel("empty pause/resume pair");
}
BENCHMARK(BM_PauseResumeControl);

// Control: the floor of a manually timed row, one empty steady_clock pair.
void BM_ClockPairControl(benchmark::State& state) {
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    state.SetIterationTime(Seconds(std::chrono::steady_clock::now() - t0));
  }
  state.SetLabel("empty steady_clock pair");
}
BENCHMARK(BM_ClockPairControl)->UseManualTime();

// Sustained sub-MSS sender under backlog: 64 pushes of 512 B against a window pinned below
// the burst, so the send window binds and a queue of sub-MSS views forms — the case the
// batching datapath targets. arg 0 = batching off (one segment per Push, immediate acks: the
// pre-batching datapath), arg 1 = batching on (MSS coalescing + RFC 1122 delayed acks).
// Read the UserCounters, not the time column: batching cuts wire frames roughly in half
// (data_segs/burst, ack_frames/burst). The time column is inflated for the batched arm by
// virtual-clock idle-stepping while the receiver holds acks against the artificially pinned
// window — the classic delayed-ack stall, which Cubic's real (growing) window avoids; fig8
// measures the realistic end-to-end effect.
void BM_TcpSmallMsgBurst(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  TcpConfig cfg;
  cfg.coalesce_segments = batched;
  cfg.delayed_acks = batched;
  // Pin the window below the burst size (both arms identically) so the send window binds and
  // a queue of sub-MSS views forms — with Cubic, steady-state cwnd outgrows any fixed burst
  // and the inline run-to-completion push would mask the coalescer entirely.
  cfg.congestion = CongestionAlgorithm::kFixedWindow;
  cfg.fixed_window_bytes = 8 * 1024;
  TcpFixture fx(cfg);
  constexpr size_t kMsgs = 64;
  constexpr size_t kMsgBytes = 512;
  for (auto _ : state) {
    const uint64_t target = fx.server->conn_stats().bytes_received + kMsgs * kMsgBytes;
    for (size_t i = 0; i < kMsgs; i++) {
      void* p = fx.a_alloc.Alloc(kMsgBytes);
      (void)fx.client->Push(Buffer::FromApp(fx.a_alloc, p, kMsgBytes));  // lossless sim link; benches measure the success path
      fx.a_alloc.Free(p);
    }
    while (fx.server->conn_stats().bytes_received < target) {
      fx.Step();
    }
    while (fx.server->HasReadyData()) {
      fx.server->PopData();
    }
    for (int i = 0; i < 4; i++) {
      fx.Step();  // drain acks so the next burst starts window-open
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kMsgs));
  const double bursts = static_cast<double>(state.iterations());
  state.counters["data_segs/burst"] =
      bursts == 0 ? 0 : static_cast<double>(fx.client->conn_stats().segments_sent) / bursts;
  state.counters["ack_frames/burst"] =
      bursts == 0 ? 0 : static_cast<double>(fx.client->conn_stats().segments_received) / bursts;
  state.counters["coalesced/burst"] =
      bursts == 0 ? 0 : static_cast<double>(fx.client->conn_stats().coalesced_segments) / bursts;
  state.SetLabel(batched ? "coalescing+delayed acks (default)" : "batching off (ablation)");
}
BENCHMARK(BM_TcpSmallMsgBurst)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// --quick perf smoke for ctest: sustained in-order segment rounds for a fixed wall-time
// budget, measured in TCP segments processed per second (data + acks, client's view).
// Fails (exit 1) only if throughput regresses more than 2x below the checked-in floor, so
// machine-to-machine variance doesn't flake CI while order-of-magnitude datapath regressions
// (e.g. an accidental O(n) scan per segment) are caught.
int RunQuickPerfSmoke() {
  // First, BM_TcpReceiveFastPath's capture step must keep going past the point where the
  // client's window closes unless B's delayed acks flow (a few hundred 64 B segments); a hang
  // here is caught by the ctest TIMEOUT. No latency floor applies.
  constexpr int kCaptureSegments = 1000;
  TcpFixture capture;
  for (int i = 0; i < kCaptureSegments; i++) {
    ReceiveNextSegment(capture, [&capture](const Ipv4Header& ip, std::span<const uint8_t> l4) {
      capture.b_tcp.OnIpv4Packet(ip, l4, capture.clock.Now());
    });
  }
  const uint64_t captured = capture.server->conn_stats().bytes_received / 64;
  std::printf("perf-smoke: captured %llu receive-fast-path segments\n",
              static_cast<unsigned long long>(captured));
  if (captured != kCaptureSegments) {
    std::fprintf(stderr, "perf-smoke FAILED: captured %llu of %d segments\n",
                 static_cast<unsigned long long>(captured), kCaptureSegments);
    return 1;
  }
  // ~1/3 of the rate observed on the reference dev container (1.5M segs/s, debug build, one
  // 2.1 GHz core — see EXPERIMENTS.md); the gate is floor/2, so only a >6x slowdown trips it.
  constexpr double kSegmentsPerSecFloor = 500000.0;
  TcpFixture fx;
  auto round = [&fx] {
    void* p = fx.a_alloc.Alloc(64);
    (void)fx.client->Push(Buffer::FromApp(fx.a_alloc, p, 64));  // lossless sim link; benches measure the success path
    fx.a_alloc.Free(p);
    while (!fx.server->HasReadyData()) {
      fx.Step();
    }
    while (fx.server->HasReadyData()) {
      fx.server->PopData();
    }
    fx.Step();  // let acks drain so windows never bind
  };
  for (int i = 0; i < 256; i++) {
    round();  // warmup: ARP, cwnd growth, allocator pools
  }
  const uint64_t segs_before =
      fx.client->conn_stats().segments_sent + fx.client->conn_stats().segments_received;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 512; i++) {
      round();
    }
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  } while (elapsed < 0.5);
  const uint64_t segs =
      fx.client->conn_stats().segments_sent + fx.client->conn_stats().segments_received - segs_before;
  const double pps = static_cast<double>(segs) / elapsed;
  std::printf("perf-smoke: %.0f TCP segments/sec (floor %.0f, gate = floor/2 = %.0f)\n", pps,
              kSegmentsPerSecFloor, kSegmentsPerSecFloor / 2);
  if (pps < kSegmentsPerSecFloor / 2) {
    std::fprintf(stderr,
                 "perf-smoke FAILED: %.0f segments/sec is >2x below the checked-in floor %.0f\n",
                 pps, kSegmentsPerSecFloor);
    return 1;
  }
  std::printf("perf-smoke OK\n");
  return 0;
}

}  // namespace
}  // namespace demi

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      return demi::RunQuickPerfSmoke();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
