// Figure 9 reproduction: latency vs. throughput as offered load rises (64 B echo, one core).
//
// Paper result: eRPC peaks highest on RDMA, Catnip (TCP) outperforms Caladan and stays
// competitive with eRPC; Catmint and Catnip(UDP) were latency-optimized, peaking lower;
// everyone's latency explodes past saturation. We sweep the in-flight window (offered load for
// a closed-loop client) and print a throughput/latency series per system; the required shape is
// the flat-then-hockey-stick curve with MiniRpc (specialized) peaking above the portable
// libOSes by a modest factor.

#include <functional>

#include "bench/bench_common.h"
#include "src/apps/minirpc.h"

namespace demi {
namespace bench {
namespace {

constexpr size_t kMsgSize = 64;
const size_t kWindows[] = {1, 2, 4, 8, 16, 32, 64};
constexpr uint64_t kOps = 20000;

void Series(const char* name, const std::function<LoadResult(size_t)>& run) {
  std::printf("\n%s:\n", name);
  std::printf("  %8s %14s %12s %12s\n", "window", "kops/s", "mean(us)", "p99(us)");
  for (size_t w : kWindows) {
    auto r = run(w);
    std::printf("  %8zu %14.1f %12.2f %12.2f\n", w, r.OpsPerSec() / 1e3,
                r.latency.Mean() / 1e3, static_cast<double>(r.latency.P99()) / 1e3);
  }
}

}  // namespace

void Main() {
  PrintHeader("Figure 9: latency vs throughput (64 B echo, rising offered load)",
              "flat latency until saturation, then a hockey stick; eRPC-class RPC peaks "
              "above the portable libOSes; Catnip TCP competitive");

  Series("Catnip TCP", [](size_t w) {
    CatnipPair pair;
    return DuetEcho({*pair.server, *pair.client, {kServerIp, 5601}, SocketType::kStream}, kMsgSize,
                    kOps, w);
  });

  Series("Catnip UDP", [](size_t w) {
    CatnipPair pair;
    return DuetEcho({*pair.server, *pair.client, {kServerIp, 5602}, SocketType::kDatagram},
                    kMsgSize, kOps, w);
  });

  Series("Catmint", [](size_t w) {
    CatmintPair pair;
    return DuetEcho({*pair.server, *pair.client, {kServerIp, 5603}}, kMsgSize, kOps, w);
  });

  Series("MiniRpc (eRPC-like)", [](size_t w) {
    MonotonicClock clock;
    SimNetwork net(LinkConfig{}, 1);
    MiniRpcServer server(net, kServerMac, clock,
                         [](std::span<const uint8_t> req, std::span<uint8_t> resp) {
                           std::memcpy(resp.data(), req.data(), req.size());
                           return req.size();
                         });
    MiniRpcClient client(net, kClientMac, kServerMac, clock);
    client.SetPump([&] { server.PollOnce(); });
    LoadResult out;
    const TimeNs start = clock.Now();
    // Fixed op count to match the PDPIX runs: run windows until kOps complete.
    while (out.latency.count() < kOps) {
      client.RunClosedLoopWindow(kMsgSize, w, 10 * kMillisecond, &out.latency);
    }
    out.elapsed = clock.Now() - start;
    return out;
  });
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
