// Shared harness for the paper-reproduction benchmarks (bench/bench_fig*.cc).
//
// Topology helpers build a client+server libOS pair on the simulated fabric and wire them into
// single-thread "duet" mode: the client's wait_* calls pump the server's libOS and application.
// On multi-core testbeds the two sides would busy-poll on their own cores (the paper's setup);
// duet mode gives the same interleaving without kernel-scheduler noise, which matters because
// this harness must also run on single-core machines.
//
// Kernel-path (POSIX) baselines instead use two threads with *blocking* sockets — the kernel
// wakes the peer, which is exactly the cost being measured.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>

#include "src/apps/echo.h"
#include "src/apps/load_driver.h"
#include "src/common/histogram.h"
#include "src/liboses/catmint.h"
#include "src/liboses/catnap.h"
#include "src/liboses/catnip.h"

namespace demi {
namespace bench {

constexpr Ipv4Addr kServerIp = Ipv4Addr::FromOctets(10, 0, 0, 1);
constexpr Ipv4Addr kClientIp = Ipv4Addr::FromOctets(10, 0, 0, 2);
constexpr MacAddr kServerMac{0xA1};
constexpr MacAddr kClientMac{0xB2};

// --- libOS pairs (server + client on one fabric, ARP/peering warmed) ---

struct CatnipPair {
  explicit CatnipPair(const LinkConfig& link = LinkConfig{}, SimBlockDevice* server_disk = nullptr,
                      TcpConfig tcp = TcpConfig{})
      : net(link, 1) {
    Catnip::Config scfg{kServerMac, kServerIp, tcp, server_disk};
    Catnip::Config ccfg{kClientMac, kClientIp, tcp, nullptr};
    server = std::make_unique<Catnip>(net, scfg, clock);
    client = std::make_unique<Catnip>(net, ccfg, clock);
    server->ethernet().arp().Insert(kClientIp, kClientMac);
    client->ethernet().arp().Insert(kServerIp, kServerMac);
  }

  MonotonicClock clock;
  SimNetwork net;
  std::unique_ptr<Catnip> server;
  std::unique_ptr<Catnip> client;
};

struct CatmintPair {
  explicit CatmintPair(const LinkConfig& link = LinkConfig{},
                       SimBlockDevice* server_disk = nullptr, size_t max_msg = 16 * 1024)
      : net(link, 1) {
    Catmint::Config scfg{kServerMac, kServerIp};
    scfg.disk = server_disk;
    scfg.max_msg_size = max_msg;
    Catmint::Config ccfg{kClientMac, kClientIp};
    ccfg.max_msg_size = max_msg;
    server = std::make_unique<Catmint>(net, scfg, clock);
    client = std::make_unique<Catmint>(net, ccfg, clock);
    server->AddPeer(kClientIp, kClientMac);
    client->AddPeer(kServerIp, kServerMac);
  }

  MonotonicClock clock;
  SimNetwork net;
  std::unique_ptr<Catmint> server;
  std::unique_ptr<Catmint> client;
};

struct CatnapPair {
  CatnapPair() {
    server = std::make_unique<Catnap>(clock);
    client = std::make_unique<Catnap>(clock);
  }
  MonotonicClock clock;
  std::unique_ptr<Catnap> server;
  std::unique_ptr<Catnap> client;
};

inline SocketAddress Loopback(uint16_t port) {
  return {Ipv4Addr::FromOctets(127, 0, 0, 1), port};
}

// Picks unique loopback ports per run so back-to-back bench invocations don't collide with
// sockets lingering in TIME_WAIT.
uint16_t UniquePort();

// --- Duet echo measurement over any libOS pair ---

struct EchoSetup {
  LibOS& server_os;
  LibOS& client_os;
  SocketAddress server_addr;
  SocketType type = SocketType::kStream;
  bool log_to_disk = false;
};

// Runs an EchoServerApp on server_os, wires the duet pump, and measures a closed-loop echo
// client that keeps `window` messages in flight (1 = unloaded RTTs; more = the
// throughput-vs-latency sweeps).
LoadResult DuetEcho(const EchoSetup& setup, size_t message_size, uint64_t iterations,
                    size_t window = 1);

// --- Observability dumps ---

// Prints a libOS's full metrics registry (text export) under a labelled banner.
void DumpMetrics(const char* label, LibOS& os);

// Writes the libOS's tracer contents as Chrome trace_event JSON to `path` and returns the
// number of events written (0 if the tracer is empty or the file can't be opened). Load the
// output at chrome://tracing or ui.perfetto.dev.
size_t ExportTraceJson(LibOS& os, const std::string& path);

// --- Table formatting ---

void PrintHeader(const char* title, const char* paper_note, bool latency_columns = true);
void PrintLatencyRow(const std::string& name, const Histogram& h, const char* note = "");
void PrintThroughputRow(const std::string& name, double value, const char* unit,
                        const char* note = "");

}  // namespace bench
}  // namespace demi

#endif  // BENCH_BENCH_COMMON_H_
