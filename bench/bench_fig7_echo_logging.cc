// Figure 7 reproduction: 64 B echo where the server synchronously logs every message to disk
// before replying.
//
// Paper result: Linux+ext4 ~70-100 µs dominated by the synchronous write; Catnap lowers it by
// polling; Catnip×Cattree / Catmint×Cattree reach ~12-14 µs total — "lower latency to remote
// disk than kernel-based OSes to remote memory" — because the libOS runs NIC→app→SPDK
// run-to-completion with no copies or context switches. Here the simulated NVMe write costs
// ~10-12 µs (Optane model), so the integrated rows must sit close to that floor while the
// kernel rows pay real fsync costs on top of socket wakeups.

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"

namespace demi {
namespace bench {
namespace {

constexpr size_t kMsgSize = 64;
constexpr uint64_t kIters = 2000;  // each echo carries a durable write; keep runs bounded

Histogram PosixLoggingEchoRtt() {
  std::atomic<bool> stop{false};
  const SocketAddress addr = Loopback(UniquePort());
  char path[] = "/tmp/demi_fig7_posix_XXXXXX";
  const int fd = ::mkstemp(path);
  ::close(fd);
  std::atomic<bool> up{false};
  std::thread server([&] {
    EchoServerOptions opts{addr, SocketType::kStream};
    opts.log_to_disk = true;
    opts.log_path = path;
    up = true;
    RunPosixEchoServer(opts, stop, nullptr);
  });
  while (!up) {
  }
  LoadResult result;
  {
    PosixTransport link(SocketType::kStream, {addr});
    EchoCodec echo(kMsgSize);
    result = RunLoad(link, echo, {kIters / 2, 50});
  }
  stop = true;
  server.join();
  ::unlink(path);
  return result.latency;
}

Histogram CatnapLoggingEchoRtt() {
  CatnapPair pair;
  const SocketAddress addr = Loopback(UniquePort());
  char path[] = "/tmp/demi_fig7_catnap_XXXXXX";
  const int fd = ::mkstemp(path);
  ::close(fd);
  EchoServerOptions sopts{addr, SocketType::kStream};
  sopts.log_to_disk = true;
  sopts.log_path = path;
  EchoServerApp app(*pair.server, sopts);
  pair.client->SetExternalPump([&] {
    pair.server->PollOnce();
    app.Pump();
  });
  LoadResult result;
  {
    PdpixTransport link(*pair.client, SocketType::kStream, {addr});
    EchoCodec echo(kMsgSize);
    result = RunLoad(link, echo, {kIters / 2, 50});
  }
  ::unlink(path);
  return result.latency;
}

}  // namespace

void Main() {
  PrintHeader("Figure 7: echo with synchronous logging to disk (64 B)",
              "Linux ~70us+, Catnap ~55us, Catmint x Cattree ~12us, Catnip(TCP) x "
              "Cattree ~14us — Demikernel reaches remote disk faster than kernels reach "
              "remote memory");

  PrintLatencyRow("Linux (POSIX + ext4 fsync)", PosixLoggingEchoRtt(), "kernel net + kernel fs");
  PrintLatencyRow("Catnap (+file fsync)", CatnapLoggingEchoRtt(), "polled sockets, kernel fs");
  {
    MonotonicClock clock;
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    CatnipPair pair(LinkConfig{}, &disk);
    auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5401}, SocketType::kStream,
                       /*log_to_disk=*/true},
                      kMsgSize, kIters);
    PrintLatencyRow("Catnip(TCP) x Cattree", r.latency, "NIC->app->SPDK run-to-completion");
  }
  {
    MonotonicClock clock;
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    CatmintPair pair(LinkConfig{}, &disk);
    auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5402}, SocketType::kStream,
                       /*log_to_disk=*/true},
                      kMsgSize, kIters);
    PrintLatencyRow("Catmint x Cattree", r.latency, "RDMA->app->SPDK run-to-completion");
  }
  std::printf("(simulated NVMe floor: ~12 us per durable 4 kB write)\n");
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
