// Figure 12 reproduction: TxnStore YCSB-T workload F (read-modify-write transactions),
// 3 replicas, read-one/write-quorum, 64 B keys, 700 B values, Zipf keys.
//
// Paper result: Linux TCP ~550 µs / UDP ~400 µs avg; TxnStore's custom RDMA stack ~180 µs;
// Catnap cuts the kernel numbers (polling); Catmint and Catnip ~100-150 µs — notably, the
// *portable* Catmint beats the hand-written RDMA transport because the custom stack uses one QP
// per connection and pays an extra copy. Required shape: kernel ≫ custom-RDMA ≳ Catnip ≳
// Catmint, and Catmint < custom RDMA.

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "src/apps/minikv.h"
#include "src/apps/txnstore.h"

namespace demi {
namespace bench {
namespace {

constexpr uint64_t kTxns = 3000;
constexpr int kReplicas = 3;

// kTxns YCSB-F transactions (quorum 2, 10k keys, 64 B keys, 700 B values) over `link`.
Histogram Ycsb(Transport& link) {
  YcsbCodec ycsb({.write_quorum = 2, .num_keys = 10000, .key_size = 64, .value_size = 700});
  return RunLoad(link, ycsb, {.operations = kTxns}).latency;
}

Histogram PosixYcsb() {
  std::atomic<bool> stop{false};
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < kReplicas; i++) {
    addrs.push_back(Loopback(UniquePort()));
  }
  std::vector<std::thread> replicas;
  for (int i = 0; i < kReplicas; i++) {
    replicas.emplace_back([&, i] { RunPosixMiniKvServer(MiniKvOptions{addrs[i]}, stop); });
  }
  Histogram latency;
  {
    PosixTransport link(SocketType::kStream, addrs);
    latency = Ycsb(link);
  }
  stop = true;
  for (auto& t : replicas) {
    t.join();
  }
  return latency;
}

// Duet YCSB over three same-libOS replicas; Factory builds replica i / the client.
template <typename MakeReplica, typename MakeClient>
Histogram DuetYcsb(MakeReplica&& make_replica, MakeClient&& make_client, uint16_t port) {
  // Replica libOSes and their MiniKv apps.
  std::vector<std::unique_ptr<LibOS>> replica_os;
  std::vector<std::unique_ptr<MiniKvServerApp>> apps;
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < kReplicas; i++) {
    auto [os, addr] = make_replica(i, port);
    replica_os.push_back(std::move(os));
    addrs.push_back(addr);
    apps.push_back(std::make_unique<MiniKvServerApp>(*replica_os.back(), MiniKvOptions{addr}));
  }
  std::unique_ptr<LibOS> client = make_client();
  client->SetExternalPump([&] {
    for (int i = 0; i < kReplicas; i++) {
      replica_os[i]->PollOnce();
      apps[i]->Pump();
    }
  });
  Histogram latency;
  {
    PdpixTransport link(*client, SocketType::kStream, addrs);
    latency = Ycsb(link);
  }
  client->SetExternalPump(nullptr);
  return latency;
}

}  // namespace

void Main() {
  PrintHeader("Figure 12: TxnStore YCSB-T workload F, 3 replicas, quorum writes",
              "paper avg/p99: Linux TCP ~550us, Linux UDP ~400us, custom RDMA ~180us, Catnap "
              "lower, Catmint/Catnip ~100-150us; portable Catmint beats the naive custom RDMA "
              "stack");

  PrintLatencyRow("Linux TCP (POSIX client)", PosixYcsb(), "kernel sockets, 3 replicas");

  {
    // Catnap: PDPIX client + MiniKv replicas over kernel loopback sockets.
    MonotonicClock clock;
    auto hist = DuetYcsb(
        [&](int i, uint16_t) {
          auto os = std::make_unique<Catnap>(clock);
          return std::pair<std::unique_ptr<LibOS>, SocketAddress>(std::move(os),
                                                                  Loopback(UniquePort()));
        },
        [&] { return std::make_unique<Catnap>(clock); }, 0);
    PrintLatencyRow("Catnap", hist, "same app, polled kernel sockets");
  }
  {
    MonotonicClock clock;
    auto net = std::make_unique<SimNetwork>(LinkConfig{}, 1);
    auto hist = DuetYcsb(
        [&](int i, uint16_t port) {
          const Ipv4Addr ip = Ipv4Addr::FromOctets(10, 7, 0, static_cast<uint8_t>(10 + i));
          auto os = std::make_unique<Catnip>(
              *net, Catnip::Config{MacAddr{uint64_t(0xC0 + i)}, ip, TcpConfig{}, nullptr}, clock);
          return std::pair<std::unique_ptr<LibOS>, SocketAddress>(std::move(os),
                                                                  SocketAddress{ip, port});
        },
        [&] {
          return std::make_unique<Catnip>(*net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
        },
        5801);
    PrintLatencyRow("Catnip (TCP)", hist, "userspace TCP to all replicas");
  }
  {
    MonotonicClock clock;
    auto net = std::make_unique<SimNetwork>(LinkConfig{}, 1);
    std::vector<Catmint*> raw_ptrs;
    auto hist = DuetYcsb(
        [&](int i, uint16_t port) {
          const Ipv4Addr ip = Ipv4Addr::FromOctets(10, 7, 1, static_cast<uint8_t>(10 + i));
          auto os = std::make_unique<Catmint>(
              *net, Catmint::Config{MacAddr{uint64_t(0xD0 + i)}, ip}, clock);
          os->AddPeer(kClientIp, kClientMac);
          raw_ptrs.push_back(os.get());
          return std::pair<std::unique_ptr<LibOS>, SocketAddress>(std::move(os),
                                                                  SocketAddress{ip, port});
        },
        [&] {
          auto c = std::make_unique<Catmint>(*net, Catmint::Config{kClientMac, kClientIp}, clock);
          for (int i = 0; i < kReplicas; i++) {
            c->AddPeer(Ipv4Addr::FromOctets(10, 7, 1, static_cast<uint8_t>(10 + i)),
                       MacAddr{uint64_t(0xD0 + i)});
          }
          return c;
        },
        5802);
    PrintLatencyRow("Catmint (RDMA libOS)", hist, "portable RDMA messaging");
  }
  {
    // The naive custom-RDMA transport TxnStore shipped with.
    MonotonicClock clock;
    SimNetwork net(LinkConfig{}, 1);
    const MacAddr macs[kReplicas] = {MacAddr{0xE0}, MacAddr{0xE1}, MacAddr{0xE2}};
    std::vector<std::unique_ptr<RawRdmaKvReplicaApp>> replicas;
    for (int i = 0; i < kReplicas; i++) {
      replicas.push_back(std::make_unique<RawRdmaKvReplicaApp>(net, macs[i], clock));
    }
    RawRdmaTransport link(net, MacAddr{0xEF}, clock, {macs[0], macs[1], macs[2]}, [&] {
      for (auto& r : replicas) {
        r->PollOnce();
      }
    });
    PrintLatencyRow("custom raw-RDMA (TxnStore's)", Ycsb(link),
                    "1 QP/conn, copy in+out, no pipelining");
  }
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
