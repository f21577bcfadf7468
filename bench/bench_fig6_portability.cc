// Figure 6 reproduction (substituted; DESIGN.md §2): the paper demonstrates portability by
// running the unmodified echo server on Windows (Catpaw/WSL) and in Azure VMs. Neither
// environment exists here, so we substitute *simulated environment changes*: the identical
// application binaryruns across
//   - native:      the Figure-5 fabric (bare-metal-like),
//   - virtualized: every frame pays a SmartNIC/vnet-translation overhead and higher base
//                  latency (the Azure-VM effect the paper measured: DPDK still works, but
//                  slower than bare metal; RDMA runs bare-metal-class),
//   - congested:   a slower, jittery fabric (the WSL-like degraded-host stand-in).
// The point being reproduced: the application and libOS code are byte-identical across rows —
// only the environment changes, and relative libOS ordering is preserved within each.

#include "bench/bench_common.h"

namespace demi {
namespace bench {
namespace {

constexpr size_t kMsgSize = 64;
constexpr uint64_t kIters = 10000;

void RunEnvironment(const char* env_name, const LinkConfig& link, bool rdma_native) {
  std::printf("\n--- environment: %s ---\n", env_name);
  {
    CatnapPair pair;
    const SocketAddress addr = Loopback(UniquePort());
    auto r = DuetEcho({*pair.server, *pair.client, addr, SocketType::kStream}, kMsgSize,
                      kIters / 4);
    PrintLatencyRow("  Catnap", r.latency, "kernel loopback: environment-independent");
  }
  {
    // The paper: Azure does not virtualize RDMA — Catmint runs bare-metal Infiniband even in
    // the VM rows. Model that by keeping the RDMA fabric native when rdma_native is set.
    CatmintPair pair(rdma_native ? LinkConfig{} : link);
    auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5301}}, kMsgSize, kIters);
    PrintLatencyRow("  Catmint", r.latency,
                    rdma_native ? "RDMA not virtualized (bare-metal path)" : "");
  }
  {
    CatnipPair pair(link);
    auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 5302}, SocketType::kStream},
                      kMsgSize, kIters);
    PrintLatencyRow("  Catnip TCP", r.latency, "same binary, different fabric");
  }
}

}  // namespace

void Main() {
  PrintHeader("Figure 6: portability — identical echo app across environments",
              "same app runs on Windows and Azure VMs unchanged; Catnip ~5x faster than "
              "kernel in a VM, Catmint native even in the VM");

  LinkConfig native;  // defaults: 1 us, 100 Gbps

  LinkConfig azure_like;
  azure_like.latency = 10 * kMicrosecond;        // VM-to-VM through the vnet
  azure_like.per_frame_overhead = 3 * kMicrosecond;  // SmartNIC vnet translation per frame
  azure_like.bandwidth_bps = 40'000'000'000ULL;

  LinkConfig degraded;
  degraded.latency = 25 * kMicrosecond;
  degraded.per_frame_overhead = 8 * kMicrosecond;
  degraded.bandwidth_bps = 10'000'000'000ULL;

  RunEnvironment("native (bare-metal-like fabric)", native, /*rdma_native=*/false);
  RunEnvironment("virtualized (Azure-VM-like: vnet overhead per frame)", azure_like,
                 /*rdma_native=*/true);
  RunEnvironment("degraded host (WSL-like slow path)", degraded, /*rdma_native=*/false);
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
