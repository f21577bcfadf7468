// Noisy-neighbor isolation benchmark (docs/TENANCY.md): a victim tenant's echo latency with
// and without a flooding tenant on the same server, and the flooder's achieved TX rate under
// its token bucket.
//
// Topology: one server Catnip hosting both tenants, two separate client hosts (the victim's
// and the flooder's own stacks/ports), all on one VirtualClock-driven fabric — fully
// deterministic, no kernel scheduler noise. The flooder runs a closed-loop window of junk
// echoes; the victim runs closed-loop 64-byte echoes. Scenarios:
//
//   solo      victim alone — the baseline tail
//   capped    flooder throttled by its token bucket + weighted DRR (the shipped config)
//   uncapped  flooder registered with rate 0 (no bucket) — the ablation showing why the
//             scheduler exists: the flood backlog sits in the NIC queue ahead of the victim
//
// `--quick` is the perf_smoke_tenant ctest gate:
//   victim p99 (capped flood) <= 3x victim p99 (solo), and
//   flooder achieved rate <= configured rate x 1.25 (bucket burst amortized), and
//   the flooder was actually throttled (the bucket did real work).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/core/tenant.h"
#include "src/liboses/catnip.h"
#include "src/net/headers.h"
#include "src/netsim/sim_network.h"

namespace demi {
namespace {

constexpr TenantId kVictim = 1;
constexpr TenantId kFlooder = 2;
constexpr uint16_t kVictimPort = 9510;
constexpr uint16_t kFloodPort = 9520;
constexpr size_t kVictimRounds = 300;
constexpr size_t kVictimMsgBytes = 64;
constexpr size_t kFloodMsgBytes = 16 * 1024;
constexpr int kFloodWindow = 32;
constexpr uint64_t kFloodRateBps = 50'000'000;  // 50 Mbit/s bucket on a 10 Gbit/s link
constexpr size_t kFloodBurstBytes = 32 * 1024;
constexpr DurationNs kRateWindow = 100 * kMillisecond;  // virtual time for the rate measurement

enum class FloodMode { kNone, kCapped, kUncapped };

struct ScenarioResult {
  bool ok = false;
  TimeNs victim_p50 = 0;
  TimeNs victim_p99 = 0;
  double flood_bps = 0;
  uint64_t flood_throttled = 0;
};

struct World {
  World()
      : net(Link(), /*seed=*/1),
        server(net, Cfg(MacAddr{0xA1}, Ipv4Addr::FromOctets(10, 5, 0, 1)), clock),
        victim_client(net, Cfg(MacAddr{0xB2}, Ipv4Addr::FromOctets(10, 5, 0, 2)), clock),
        flood_client(net, Cfg(MacAddr{0xB3}, Ipv4Addr::FromOctets(10, 5, 0, 3)), clock) {
    for (Catnip* c : {&victim_client, &flood_client}) {
      server.ethernet().arp().Insert(c->local_ip(), c->ethernet().local_mac());
      c->ethernet().arp().Insert(server.local_ip(), MacAddr{0xA1});
    }
  }

  static LinkConfig Link() {
    LinkConfig l;
    l.bandwidth_bps = 10'000'000'000ULL;  // contention shows up in the NIC TX queue, not prop
    return l;
  }
  static Catnip::Config Cfg(MacAddr mac, Ipv4Addr ip) {
    return Catnip::Config{mac, ip, TcpConfig{}, nullptr};
  }

  void AdvanceClock() {
    TimeNs next = 0;
    const auto consider = [&next](TimeNs t) {
      if (t != 0 && (next == 0 || t < next)) {
        next = t;
      }
    };
    consider(net.NextDeliveryTime());
    consider(server.scheduler().timer_wheel().NextDeadline());
    consider(victim_client.scheduler().timer_wheel().NextDeadline());
    consider(flood_client.scheduler().timer_wheel().NextDeadline());
    if (next > clock.Now()) {
      clock.SetTime(next);
    } else {
      clock.Advance(kMicrosecond);  // idle tick; also paces token-bucket refill granularity
    }
  }

  VirtualClock clock;
  SimNetwork net;
  Catnip server;
  Catnip victim_client;
  Catnip flood_client;
};

Result<QToken> PushCopied(Catnip& os, QueueDesc qd, const std::string& data) {
  return os.Push(qd, Sgarray::Of(const_cast<char*>(data.data()),
                                 static_cast<uint32_t>(data.size())));
}

// One pop token per server-side connection, echoed and re-armed by the pump.
struct EchoConn {
  QueueDesc qd = kInvalidQd;
  QToken pop = kInvalidQToken;
  bool open = false;
};

ScenarioResult RunScenario(FloodMode mode) {
  World w;
  ScenarioResult out;

  TenantConfig victim_cfg;  // unlimited: the victim is only an accounting domain
  if (w.server.RegisterTenant(kVictim, victim_cfg) != Status::kOk) {
    return out;
  }
  TenantConfig flood_cfg;
  flood_cfg.tx_rate_bps = mode == FloodMode::kCapped ? kFloodRateBps : 0;
  flood_cfg.tx_burst_bytes = kFloodBurstBytes;
  flood_cfg.tx_weight = 1;
  if (w.server.RegisterTenant(kFlooder, flood_cfg) != Status::kOk) {
    return out;
  }

  const auto listen = [&](uint16_t port, TenantId tenant) -> QueueDesc {
    auto qd = w.server.Socket(SocketType::kStream);
    if (!qd.ok() || w.server.Bind(*qd, {w.server.local_ip(), port}) != Status::kOk ||
        w.server.SetQueueTenant(*qd, tenant) != Status::kOk ||
        w.server.Listen(*qd, 8) != Status::kOk) {
      return kInvalidQd;
    }
    return *qd;
  };
  const QueueDesc victim_lqd = listen(kVictimPort, kVictim);
  const QueueDesc flood_lqd = listen(kFloodPort, kFlooder);
  if (victim_lqd == kInvalidQd || flood_lqd == kInvalidQd) {
    return out;
  }

  EchoConn victim_sc;
  EchoConn flood_sc;
  const auto pump_server = [&](EchoConn& c) {
    if (!c.open || !w.server.IsDone(c.pop)) {
      return;
    }
    auto r = w.server.TryTake(c.pop);
    if (!r.ok() || r->status != Status::kOk) {
      c.open = false;
      return;
    }
    auto echo = w.server.Push(c.qd, r->sga);
    (void)echo;
    w.server.FreeSga(r->sga);
    auto next = w.server.Pop(c.qd);
    if (next.ok()) {
      c.pop = *next;
    } else {
      c.open = false;
    }
  };

  const bool flooding = mode != FloodMode::kNone;
  const std::string junk(kFloodMsgBytes, 'J');
  std::vector<QToken> flood_pops;
  bool flood_open = false;
  const auto pump_flooder = [&](QueueDesc flood_cqd) {
    if (!flood_open) {
      return;
    }
    for (size_t i = 0; i < flood_pops.size(); i++) {
      if (!w.flood_client.IsDone(flood_pops[i])) {
        continue;
      }
      auto r = w.flood_client.TryTake(flood_pops[i]);
      if (!r.ok() || r->status != Status::kOk) {
        flood_open = false;
        return;
      }
      w.flood_client.FreeSga(r->sga);
      auto push = PushCopied(w.flood_client, flood_cqd, junk);
      auto pop = w.flood_client.Pop(flood_cqd);
      if (!push.ok() || !pop.ok()) {
        flood_open = false;
        return;
      }
      flood_pops[i] = *pop;
    }
  };

  QueueDesc flood_cqd = kInvalidQd;
  // Settle every same-instant reaction (receive -> app echo -> transmit) BEFORE advancing
  // virtual time; otherwise each reaction lands after a clock jump to the next timer (the
  // 500 us delayed-ack deadline) and the measured RTT is timer noise, not wire latency.
  const auto settle = [&]() {
    for (int r = 0; r < 2; r++) {
      w.server.PollOnce();
      pump_server(victim_sc);
      pump_server(flood_sc);
      w.victim_client.PollOnce();
      w.flood_client.PollOnce();
      pump_flooder(flood_cqd);
    }
  };
  const auto run_until = [&](auto&& pred) {
    for (int i = 0; i < 8'000'000; i++) {
      settle();
      if (pred()) {
        return true;
      }
      w.AdvanceClock();
    }
    return pred();
  };

  // Establish the victim connection (and the flooder's, when flooding).
  auto victim_accept = w.server.Accept(victim_lqd);
  auto victim_cqd = w.victim_client.Socket(SocketType::kStream);
  if (!victim_accept.ok() || !victim_cqd.ok()) {
    return out;
  }
  auto victim_connect = w.victim_client.Connect(*victim_cqd, {w.server.local_ip(), kVictimPort});
  if (!victim_connect.ok()) {
    return out;
  }
  if (!run_until([&] {
        return w.server.IsDone(*victim_accept) && w.victim_client.IsDone(*victim_connect);
      })) {
    return out;
  }
  {
    auto a = w.server.TryTake(*victim_accept);
    if (!a.ok() || a->status != Status::kOk) {
      return out;
    }
    victim_sc.qd = a->new_qd;
    (void)w.victim_client.TryTake(*victim_connect);
    auto pop = w.server.Pop(victim_sc.qd);
    if (!pop.ok()) {
      return out;
    }
    victim_sc.pop = *pop;
    victim_sc.open = true;
  }

  if (flooding) {
    auto flood_accept = w.server.Accept(flood_lqd);
    auto cqd = w.flood_client.Socket(SocketType::kStream);
    if (!flood_accept.ok() || !cqd.ok()) {
      return out;
    }
    flood_cqd = *cqd;
    auto flood_connect = w.flood_client.Connect(flood_cqd, {w.server.local_ip(), kFloodPort});
    if (!flood_connect.ok()) {
      return out;
    }
    if (!run_until([&] {
          return w.server.IsDone(*flood_accept) && w.flood_client.IsDone(*flood_connect);
        })) {
      return out;
    }
    auto a = w.server.TryTake(*flood_accept);
    if (!a.ok() || a->status != Status::kOk) {
      return out;
    }
    flood_sc.qd = a->new_qd;
    (void)w.flood_client.TryTake(*flood_connect);
    auto pop = w.server.Pop(flood_sc.qd);
    if (!pop.ok()) {
      return out;
    }
    flood_sc.pop = *pop;
    flood_sc.open = true;
    flood_open = true;
    for (int i = 0; i < kFloodWindow; i++) {
      auto push = PushCopied(w.flood_client, flood_cqd, junk);
      auto pop2 = w.flood_client.Pop(flood_cqd);
      if (!push.ok() || !pop2.ok()) {
        return out;
      }
      flood_pops.push_back(*pop2);
    }
    // Warmup: let the flood reach steady state (bucket burst spent, DRR draining) before any
    // measurement starts.
    const TimeNs warm_until = w.clock.Now() + 20 * kMillisecond;
    run_until([&] { return w.clock.Now() >= warm_until; });
  }

  // Victim measurement: closed-loop echoes, virtual-time RTT per round.
  const std::string msg(kVictimMsgBytes, 'v');
  std::vector<TimeNs> rtts;
  rtts.reserve(kVictimRounds);
  const TimeNs rate_t0 = w.clock.Now();
  const uint64_t rate_bytes0 =
      w.server.ethernet().tx_scheduler().GetTenantTxStats(kFlooder).tx_bytes;
  for (size_t round = 0; round < kVictimRounds; round++) {
    const TimeNs start = w.clock.Now();
    auto push = PushCopied(w.victim_client, *victim_cqd, msg);
    auto pop = w.victim_client.Pop(*victim_cqd);
    if (!push.ok() || !pop.ok()) {
      return out;
    }
    size_t echoed = 0;
    const bool done = run_until([&] {
      if (!w.victim_client.IsDone(*pop)) {
        return false;
      }
      auto r = w.victim_client.TryTake(*pop);
      if (!r.ok() || r->status != Status::kOk) {
        return true;  // dead connection: leaves echoed short
      }
      for (uint32_t s = 0; s < r->sga.num_segs; s++) {
        echoed += r->sga.segs[s].len;
      }
      w.victim_client.FreeSga(r->sga);
      if (echoed < msg.size()) {
        auto again = w.victim_client.Pop(*victim_cqd);
        if (!again.ok()) {
          return true;
        }
        pop = *again;
        return false;
      }
      return true;
    });
    if (!done || echoed != msg.size()) {
      return out;
    }
    rtts.push_back(w.clock.Now() - start);
  }

  if (flooding) {
    // Extend the flood-only run so the rate window dominates the bucket's initial burst.
    const TimeNs until = rate_t0 + kRateWindow;
    run_until([&] { return w.clock.Now() >= until || !flood_open; });
    const TimeNs dt = w.clock.Now() - rate_t0;
    const uint64_t bytes =
        w.server.ethernet().tx_scheduler().GetTenantTxStats(kFlooder).tx_bytes - rate_bytes0;
    out.flood_bps = dt == 0 ? 0 : static_cast<double>(bytes) * 8.0 * kSecond / dt;
    out.flood_throttled = w.server.ethernet().tx_scheduler().GetTenantTxStats(kFlooder).throttled;
  }

  std::sort(rtts.begin(), rtts.end());
  out.victim_p50 = rtts[rtts.size() / 2];
  out.victim_p99 = rtts[(rtts.size() * 99) / 100];
  out.ok = true;
  return out;
}

void PrintRow(const char* name, const ScenarioResult& r) {
  std::printf("%-10s  p50 %8.1f us  p99 %8.1f us  flooder %8.2f Mbit/s  throttled %llu\n", name,
              static_cast<double>(r.victim_p50) / 1e3, static_cast<double>(r.victim_p99) / 1e3,
              r.flood_bps / 1e6, static_cast<unsigned long long>(r.flood_throttled));
}

int Run(bool quick) {
  std::printf("bench_noisy_neighbor: victim echo %zuB x%zu, flooder %zuB window %d, "
              "bucket %.0f Mbit/s (docs/TENANCY.md)\n",
              kVictimMsgBytes, kVictimRounds, kFloodMsgBytes, kFloodWindow,
              static_cast<double>(kFloodRateBps) / 1e6);

  const ScenarioResult solo = RunScenario(FloodMode::kNone);
  if (!solo.ok) {
    std::fprintf(stderr, "FAIL: solo scenario did not complete\n");
    return 1;
  }
  PrintRow("solo", solo);

  const ScenarioResult capped = RunScenario(FloodMode::kCapped);
  if (!capped.ok) {
    std::fprintf(stderr, "FAIL: capped-flood scenario did not complete\n");
    return 1;
  }
  PrintRow("capped", capped);

  if (!quick) {
    const ScenarioResult uncapped = RunScenario(FloodMode::kUncapped);
    if (uncapped.ok) {
      PrintRow("uncapped", uncapped);
    } else {
      std::printf("uncapped   (did not complete)\n");
    }
  }

  if (quick) {
    bool pass = true;
    if (capped.victim_p99 > 3 * solo.victim_p99) {
      std::fprintf(stderr, "FAIL: victim p99 under capped flood %.1f us > 3x solo %.1f us\n",
                   static_cast<double>(capped.victim_p99) / 1e3,
                   static_cast<double>(solo.victim_p99) / 1e3);
      pass = false;
    }
    if (capped.flood_bps > static_cast<double>(kFloodRateBps) * 1.25) {
      std::fprintf(stderr, "FAIL: flooder achieved %.2f Mbit/s > bucket %.2f Mbit/s x1.25\n",
                   capped.flood_bps / 1e6, static_cast<double>(kFloodRateBps) / 1e6);
      pass = false;
    }
    if (capped.flood_throttled == 0) {
      std::fprintf(stderr, "FAIL: the flooder was never throttled — the bucket did no work\n");
      pass = false;
    }
    std::printf("perf_smoke_tenant: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
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
