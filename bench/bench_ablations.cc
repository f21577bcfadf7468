// Ablation benchmarks for the design choices DESIGN.md calls out (beyond those embedded in the
// other benches: polling-vs-blockable in micro_scheduler, zero-copy threshold in micro_memory):
//   1. NIC checksum offload on/off — what software checksums cost the Catnip TCP echo path.
//   2. Delayed acks on/off — the latency/segment-count trade of RFC 1122 ack holding.
//   3. Catmint send-window credits — how small credit windows throttle pipelined messaging.

#include "bench/bench_common.h"

namespace demi {
namespace bench {
namespace {

constexpr uint64_t kIters = 8000;

void ChecksumOffloadAblation() {
  std::printf("\n-- checksum offload (Catnip TCP echo, 1024 B) --\n");
  for (bool offload : {true, false}) {
    MonotonicClock clock;
    SimNetwork net(LinkConfig{}, 1);
    Catnip::Config scfg{kServerMac, kServerIp, TcpConfig{}, nullptr};
    scfg.checksum_offload = offload;
    Catnip::Config ccfg{kClientMac, kClientIp, TcpConfig{}, nullptr};
    ccfg.checksum_offload = offload;
    Catnip server(net, scfg, clock);
    Catnip client(net, ccfg, clock);
    server.ethernet().arp().Insert(kClientIp, kClientMac);
    client.ethernet().arp().Insert(kServerIp, kServerMac);
    auto r = DuetEcho({server, client, {kServerIp, 6001}, SocketType::kStream}, 1024, kIters);
    PrintLatencyRow(offload ? "  offloaded (device)" : "  software checksums", r.latency,
                    offload ? "DPDK-style TX/RX offload" : "RFC 1071 in software, both sides");
  }
}

void DelayedAckAblation() {
  std::printf("\n-- delayed acks (Catnip TCP echo, 64 B closed loop) --\n");
  for (bool delayed : {true, false}) {
    TcpConfig tcp;
    tcp.delayed_acks = delayed;
    CatnipPair pair(LinkConfig{}, nullptr, tcp);
    auto r = DuetEcho({*pair.server, *pair.client, {kServerIp, 6002}, SocketType::kStream}, 64,
                      kIters / 2);
    const uint64_t segments =
        pair.client->tcp().stats().segments_tx + pair.server->tcp().stats().segments_tx;
    char note[64];
    std::snprintf(note, sizeof(note), "%.2f segments/echo",
                  static_cast<double>(segments) / static_cast<double>(r.latency.count()));
    PrintLatencyRow(delayed ? "  delayed_acks=on" : "  delayed_acks=off", r.latency, note);
  }
}

void CatmintCreditAblation() {
  std::printf("\n-- Catmint send-window credits (64 B, window-16 pipelined) --\n");
  for (size_t credits : {size_t{2}, size_t{8}, size_t{64}}) {
    MonotonicClock clock;
    SimNetwork net(LinkConfig{}, 1);
    Catmint::Config scfg{kServerMac, kServerIp};
    Catmint::Config ccfg{kClientMac, kClientIp};
    scfg.send_window_msgs = credits;
    ccfg.send_window_msgs = credits;
    Catmint server(net, scfg, clock);
    Catmint client(net, ccfg, clock);
    server.AddPeer(kClientIp, kClientMac);
    client.AddPeer(kServerIp, kServerMac);
    auto r = DuetEcho({server, client, {kServerIp, 6003}}, 64, kIters, 16);
    char name[48];
    std::snprintf(name, sizeof(name), "  credits=%zu", credits);
    PrintThroughputRow(name, r.OpsPerSec() / 1e3, "kops/s",
                       credits < 16 ? "credit-bound: sender blocks on window updates"
                                    : "credit-rich: pipeline runs free");
  }
}

}  // namespace

void Main() {
  PrintHeader("Ablations: checksum offload, delayed acks, Catmint credits",
              "design-choice costs the paper discusses but does not plot");
  ChecksumOffloadAblation();
  DelayedAckAblation();
  CatmintCreditAblation();
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
