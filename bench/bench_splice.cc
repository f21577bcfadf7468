// Zero-copy network×storage splice benchmark (docs/STORAGE.md): goodput of
// Catnip::Splice in both directions — TCP stream appended to the Cattree log
// (net→disk) and log records streamed out over TCP (disk→net).
//
// Entirely virtual-time: the link is capped at 10 Gbps, below the simulated disk's 2 GB/s, so
// a correctly pipelined splice (disk appends overlapped with reception) is link-bound and the
// measured goodput is deterministic — no kernel scheduler or wall-clock noise.
//
// `--quick` is the perf_smoke_splice ctest gate:
//   net→disk goodput >= 80% of the link bandwidth cap (the pipeline keeps the wire full), and
//   log bounce_bytes == 0 (no payload byte was flattened host-side), and
//   no terminal disk errors.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/liboses/catnip.h"
#include "src/netsim/sim_network.h"
#include "src/storage/sim_block_device.h"

namespace demi {
namespace {

constexpr uint64_t kLinkBps = 10'000'000'000ULL;  // 10 Gbps, under the disk's 2 GB/s
constexpr size_t kChunk = 64 * 1024;

struct World {
  World()
      : net(Link(), /*seed=*/21),
        disk(DiskConfig(), clock),
        server(net, ServerConfig(&disk), clock),
        client(net, ClientConfig(), clock) {
    server.ethernet().arp().Insert(client.local_ip(), MacAddr{0xC});
    client.ethernet().arp().Insert(server.local_ip(), MacAddr{0x5});
  }

  static LinkConfig Link() {
    LinkConfig l;
    l.bandwidth_bps = kLinkBps;
    return l;
  }

  static SimBlockDevice::Config DiskConfig() {
    SimBlockDevice::Config c;
    c.num_blocks = 32768;  // 128 MB: headroom for the largest table row
    return c;
  }

  static Catnip::Config ServerConfig(SimBlockDevice* d) {
    return Catnip::Config{MacAddr{0x5}, Ipv4Addr::FromOctets(10, 9, 0, 1), TcpConfig{}, d};
  }

  static Catnip::Config ClientConfig() {
    return Catnip::Config{MacAddr{0xC}, Ipv4Addr::FromOctets(10, 9, 0, 2), TcpConfig{}, nullptr};
  }

  void Step() {
    server.PollOnce();
    client.PollOnce();
    TimeNs next = 0;
    const auto consider = [&next](TimeNs t) {
      if (t != 0 && (next == 0 || t < next)) {
        next = t;
      }
    };
    consider(net.NextDeliveryTime());
    consider(server.scheduler().timer_wheel().NextDeadline());
    consider(client.scheduler().timer_wheel().NextDeadline());
    consider(disk.NextCompletionTime());
    if (next > clock.Now()) {
      clock.SetTime(next);
    } else {
      clock.Advance(kMicrosecond);
    }
  }

  template <typename Pred>
  bool RunUntil(Pred&& pred, int max_steps = 8'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) {
        return true;
      }
      Step();
    }
    return pred();
  }

  // Establishes a client→server connection; returns {client qd, server-side conn qd}.
  bool Connect(QueueDesc* cqd_out, QueueDesc* sqd_out) {
    auto lqd = server.Socket(SocketType::kStream);
    if (server.Bind(*lqd, {server.local_ip(), 7300}) != Status::kOk ||
        server.Listen(*lqd, 4) != Status::kOk) {
      return false;
    }
    auto aq = server.Accept(*lqd);
    auto cqd = client.Socket(SocketType::kStream);
    auto cq = client.Connect(*cqd, {server.local_ip(), 7300});
    if (!aq.ok() || !cq.ok() ||
        !RunUntil([&] { return client.IsDone(*cq) && server.IsDone(*aq); })) {
      return false;
    }
    auto acc = server.TryTake(*aq);
    if (client.TryTake(*cq)->status != Status::kOk || acc->status != Status::kOk) {
      return false;
    }
    *cqd_out = *cqd;
    *sqd_out = acc->new_qd;
    return true;
  }

  VirtualClock clock;
  SimNetwork net;
  SimBlockDevice disk;
  Catnip server;
  Catnip client;
};

double ToGbps(size_t bytes, DurationNs elapsed) {
  return elapsed == 0 ? 0 : static_cast<double>(bytes) * 8.0 / static_cast<double>(elapsed);
}

struct SpliceRun {
  bool ok = false;
  double gbps = 0;
  uint64_t bounce_bytes = 0;
  uint64_t terminal_errors = 0;
};

// net→disk: the client streams `bytes` into the server, which splices the connection into its
// log. Goodput is measured in virtual time from the first push to splice completion.
SpliceRun RunNetToDisk(size_t bytes) {
  SpliceRun out;
  World w;
  QueueDesc cqd, sqd;
  if (!w.Connect(&cqd, &sqd)) {
    return out;
  }
  auto fqd = w.server.Open("bench");
  auto splice_qt = w.server.Splice(sqd, *fqd);
  if (!fqd.ok() || !splice_qt.ok()) {
    return out;
  }

  std::vector<uint8_t> chunk(kChunk, 0x5C);
  const TimeNs start = w.clock.Now();
  for (size_t off = 0; off < bytes; off += kChunk) {
    void* buf = w.client.DmaMalloc(kChunk);
    if (buf == nullptr) {
      return out;
    }
    std::memcpy(buf, chunk.data(), kChunk);
    auto push = w.client.Push(cqd, Sgarray::Of(buf, kChunk));
    w.client.DmaFree(buf);
    if (!push.ok()) {
      return out;
    }
    // Keep the producer a bounded distance ahead of the wire so the sender heap stays flat;
    // the link cap, not this loop, sets the pace.
    while (w.client.allocator().GetStats().deferred_frees > 64) {
      w.Step();
    }
  }
  if (w.client.Close(cqd) != Status::kOk) {
    return out;
  }
  if (!w.RunUntil([&] { return w.server.IsDone(*splice_qt); })) {
    return out;
  }
  auto r = w.server.TryTake(*splice_qt);
  if (r->status != Status::kOk || r->bytes != bytes) {
    return out;
  }
  const auto& ls = w.server.storage()->log().stats();
  out.ok = true;
  out.gbps = ToGbps(bytes, w.clock.Now() - start);
  out.bounce_bytes = ls.bounce_bytes;
  out.terminal_errors = ls.io_terminal_errors;
  return out;
}

// disk→net: `bytes` are appended to the server's log first, then spliced out over TCP while the
// client drains. Goodput spans the splice start to the last byte popped.
SpliceRun RunDiskToNet(size_t bytes) {
  SpliceRun out;
  World w;
  QueueDesc cqd, sqd;
  if (!w.Connect(&cqd, &sqd)) {
    return out;
  }
  // Preload the log through a loopback splice-free path: plain pushes on a file queue.
  auto fqd = w.server.Open("bench");
  if (!fqd.ok()) {
    return out;
  }
  std::vector<uint8_t> chunk(kChunk, 0x5D);
  for (size_t off = 0; off < bytes; off += kChunk) {
    void* buf = w.server.DmaMalloc(kChunk);
    if (buf == nullptr) {
      return out;
    }
    std::memcpy(buf, chunk.data(), kChunk);
    auto push = w.server.Push(*fqd, Sgarray::Of(buf, kChunk));
    w.server.DmaFree(buf);
    if (!push.ok() || !w.RunUntil([&] { return w.server.IsDone(*push); }) ||
        w.server.TryTake(*push)->status != Status::kOk) {
      return out;
    }
  }

  auto replay_qd = w.server.Open("bench");
  const TimeNs start = w.clock.Now();
  auto splice_qt = w.server.Splice(*replay_qd, sqd);
  if (!replay_qd.ok() || !splice_qt.ok()) {
    return out;
  }
  size_t received = 0;
  while (received < bytes) {
    auto pop = w.client.Pop(cqd);
    if (!pop.ok() || !w.RunUntil([&] { return w.client.IsDone(*pop); })) {
      return out;
    }
    auto r = w.client.TryTake(*pop);
    if (r->status != Status::kOk) {
      return out;
    }
    received += r->sga.TotalBytes();
    w.client.FreeSga(r->sga);
  }
  const TimeNs end = w.clock.Now();
  if (!w.RunUntil([&] { return w.server.IsDone(*splice_qt); })) {
    return out;
  }
  if (w.server.TryTake(*splice_qt)->status != Status::kOk) {
    return out;
  }
  const auto& ls = w.server.storage()->log().stats();
  out.ok = true;
  out.gbps = ToGbps(bytes, end - start);
  out.bounce_bytes = ls.bounce_bytes;
  out.terminal_errors = ls.io_terminal_errors;
  return out;
}

int Run(bool quick) {
  const double link_gbps = static_cast<double>(kLinkBps) / 1e9;
  if (quick) {
    constexpr size_t kQuickBytes = 12 * 1024 * 1024;
    const SpliceRun r = RunNetToDisk(kQuickBytes);
    const double floor_gbps = 0.8 * link_gbps;
    std::printf("perf_smoke_splice: net->disk %.2f Gbps (floor %.2f of %.0f Gbps link), "
                "bounce=%llu, terminal_errors=%llu\n",
                r.gbps, floor_gbps, link_gbps,
                static_cast<unsigned long long>(r.bounce_bytes),
                static_cast<unsigned long long>(r.terminal_errors));
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: splice did not complete cleanly\n");
      return 1;
    }
    if (r.gbps < floor_gbps) {
      std::fprintf(stderr, "FAIL: goodput below 80%% of the link cap — pipeline stall\n");
      return 1;
    }
    if (r.bounce_bytes != 0) {
      std::fprintf(stderr, "FAIL: splice left the zero-copy path (bounce_bytes != 0)\n");
      return 1;
    }
    if (r.terminal_errors != 0) {
      std::fprintf(stderr, "FAIL: terminal disk errors on a clean device\n");
      return 1;
    }
    std::printf("PASS\n");
    return 0;
  }

  std::printf("splice goodput over a %.0f Gbps link (disk: 2 GB/s, virtual time)\n", link_gbps);
  std::printf("%10s %14s %14s\n", "size", "net->disk", "disk->net");
  for (const size_t mb : {4, 16, 64}) {
    const SpliceRun in = RunNetToDisk(mb * 1024 * 1024);
    const SpliceRun outr = RunDiskToNet(mb * 1024 * 1024);
    std::printf("%8zuMB %11.2f Gb %11.2f Gb%s\n", mb, in.gbps, outr.gbps,
                (in.ok && outr.ok) ? "" : "  (INCOMPLETE)");
  }
  return 0;
}

}  // namespace
}  // namespace demi

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    }
  }
  return demi::Run(quick);
}
