// Noisy-neighbor chaos soak (docs/TENANCY.md, docs/FAULTS.md): a flooding tenant and a victim
// tenant share one server under seeded corruption plus tenant-scoped frame loss aimed at the
// flooder. Every scenario is fully deterministic — fault decisions flow from one seeded
// FaultPlan and the stacks run on a shared VirtualClock — so any failing seed replays exactly
// with DEMI_FAULT_SEED=<seed>.
//
// Invariants checked per seed:
//   - byte-exact victim echoes: the victim's stream survives the flood and the corruption;
//   - bounded victim latency: the flooder's backlog must not capture the link (token bucket +
//     weighted DRR keep the victim's median RTT small);
//   - the flooder is actually throttled (its bucket queues frames) and tenant_drop fires;
//   - zero cross-tenant violations: under -DDEMI_OWNERSHIP_CHECKS=ON any wrong-tenant buffer
//     touch aborts the process, so a green run is the proof;
//   - determinism: the same seed replays to the identical victim transcript and counters.
//
// Environment knobs: DEMI_FAULT_SEED=<n> replays one seed; DEMI_CHAOS_SEEDS=<n> sets the soak
// width (default 20).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catnip.h"
#include "src/net/headers.h"
#include "src/netsim/sim_network.h"
#include "tests/chaos_seeds.h"

namespace demi {
namespace {

constexpr TenantId kVictim = 1;
constexpr TenantId kFlooder = 2;
constexpr uint16_t kVictimPort = 9100;
constexpr uint16_t kFlooderPort = 9200;
constexpr int kVictimRounds = 40;
constexpr size_t kFloodMsgBytes = 2048;
constexpr int kFloodWindow = 4;  // junk messages the flooding client keeps outstanding

std::string ReplayHint(uint64_t seed) {
  return "seed " + std::to_string(seed) +
         " — replay with: DEMI_FAULT_SEED=" + std::to_string(seed) + " ./tenant_chaos_test";
}

class Watchdog {
 public:
  explicit Watchdog(int budget_seconds = 30)
      : start_(std::chrono::steady_clock::now()), budget_seconds_(budget_seconds) {}
  bool Expired() const {
    return std::chrono::steady_clock::now() - start_ > std::chrono::seconds(budget_seconds_);
  }

 private:
  std::chrono::steady_clock::time_point start_;
  int budget_seconds_;
};

// The deterministic two-host world: server (both tenants) and client Catnips on one
// VirtualClock, with the injector wired into the fabric so tenant_drop reaches the server's
// TX path through the SimNetwork fallback.
struct NoisyWorld {
  explicit NoisyWorld(const FaultPlan& plan)
      : net(LinkConfig{}, /*seed=*/plan.seed + 0x7EA47),
        server(net, StackConfig(MacAddr{0x5}, Ipv4Addr::FromOctets(10, 9, 0, 1)), clock),
        client(net, StackConfig(MacAddr{0xC}, Ipv4Addr::FromOctets(10, 9, 0, 2)), clock) {
    server.ethernet().arp().Insert(client.local_ip(), MacAddr{0xC});
    client.ethernet().arp().Insert(server.local_ip(), MacAddr{0x5});
    faults.SetTracer(&server.tracer());
    faults.RegisterMetrics(server.metrics());
    net.SetFaultInjector(&faults);
    faults.Arm(plan);
  }

  static Catnip::Config StackConfig(MacAddr mac, Ipv4Addr ip) {
    Catnip::Config c{mac, ip, TcpConfig{}, nullptr};
    c.checksum_offload = false;  // software checksums must catch the injected bit flips
    return c;
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
    consider(client.scheduler().timer_wheel().NextDeadline());
    if (next > clock.Now()) {
      clock.SetTime(next);
    } else {
      clock.Advance(kMicrosecond);
    }
  }

  void Step() {
    server.PollOnce();
    client.PollOnce();
    AdvanceClock();
  }

  // Declaration order doubles as destruction order (reversed): the libOSes go first, while the
  // injector and network they point into are still alive.
  VirtualClock clock;
  SimNetwork net;
  FaultInjector faults;
  Catnip server;
  Catnip client;
};

Result<QToken> PushCopied(Catnip& os, QueueDesc qd, const std::string& data) {
  // Foreign memory: the libOS pins by copying before the call returns.
  return os.Push(qd, Sgarray::Of(const_cast<char*>(data.data()),
                                 static_cast<uint32_t>(data.size())));
}

void AppendSga(Catnip& os, QResult& r, std::string* out) {
  for (uint32_t i = 0; i < r.sga.num_segs; i++) {
    out->append(static_cast<const char*>(r.sga.segs[i].buf), r.sga.segs[i].len);
  }
  os.FreeSga(r.sga);
}

// Everything the scenario measures, compared across replays of the same seed.
struct Outcome {
  bool completed = false;
  std::string victim_transcript;
  TimeNs victim_rtt_p50 = 0;
  TimeNs victim_rtt_max = 0;
  uint64_t flooder_throttled = 0;
  uint64_t flooder_tx_bytes = 0;
  uint64_t tenant_frames_dropped = 0;
  uint64_t victim_echoes = 0;
  uint64_t flood_echoes = 0;

  bool operator==(const Outcome& o) const {
    return completed == o.completed && victim_transcript == o.victim_transcript &&
           victim_rtt_p50 == o.victim_rtt_p50 && victim_rtt_max == o.victim_rtt_max &&
           flooder_throttled == o.flooder_throttled && flooder_tx_bytes == o.flooder_tx_bytes &&
           tenant_frames_dropped == o.tenant_frames_dropped &&
           victim_echoes == o.victim_echoes && flood_echoes == o.flood_echoes;
  }
};

// One pop token per server-side connection, re-armed after every echo.
struct EchoConn {
  QueueDesc qd = kInvalidQd;
  QToken pop = kInvalidQToken;
  bool open = false;
  uint64_t echoes = 0;
};

Outcome RunNoisyNeighborScenario(uint64_t seed, const Watchdog& dog) {
  FaultPlan plan;
  plan.seed = seed;
  plan.net_corrupt = 0.01;  // light corruption on every link, both tenants
  plan.net_corrupt_bits = 2;
  plan.tenant_drop_id = kFlooder;
  plan.tenant_drop = 0.25;  // heavy targeted loss on the flooder's TX only
  NoisyWorld w(plan);
  Outcome out;

  // The flooder gets a tight token bucket; the victim rides the control-configured default
  // weight. Registration also publishes both tenants' labelled metrics.
  TenantConfig victim_cfg;
  EXPECT_EQ(w.server.RegisterTenant(kVictim, victim_cfg), Status::kOk);
  TenantConfig flood_cfg;
  flood_cfg.tx_rate_bps = 2'000'000;  // 250 KB/s of virtual link time
  flood_cfg.tx_burst_bytes = 8 * 1024;
  flood_cfg.tx_weight = 1;
  EXPECT_EQ(w.server.RegisterTenant(kFlooder, flood_cfg), Status::kOk);

  // Two listeners, one per tenant.
  const auto listen = [&](uint16_t port, TenantId tenant) -> QueueDesc {
    auto qd = w.server.Socket(SocketType::kStream);
    EXPECT_TRUE(qd.ok());
    EXPECT_EQ(w.server.Bind(*qd, {w.server.local_ip(), port}), Status::kOk);
    EXPECT_EQ(w.server.SetQueueTenant(*qd, tenant), Status::kOk);
    EXPECT_EQ(w.server.Listen(*qd, 8), Status::kOk);
    return *qd;
  };
  const QueueDesc victim_lqd = listen(kVictimPort, kVictim);
  const QueueDesc flood_lqd = listen(kFlooderPort, kFlooder);
  auto victim_accept = w.server.Accept(victim_lqd);
  auto flood_accept = w.server.Accept(flood_lqd);
  EXPECT_TRUE(victim_accept.ok());
  EXPECT_TRUE(flood_accept.ok());

  auto victim_cqd = w.client.Socket(SocketType::kStream);
  auto flood_cqd = w.client.Socket(SocketType::kStream);
  EXPECT_TRUE(victim_cqd.ok());
  EXPECT_TRUE(flood_cqd.ok());
  auto victim_connect = w.client.Connect(*victim_cqd, {w.server.local_ip(), kVictimPort});
  auto flood_connect = w.client.Connect(*flood_cqd, {w.server.local_ip(), kFlooderPort});
  EXPECT_TRUE(victim_connect.ok());
  EXPECT_TRUE(flood_connect.ok());

  EchoConn victim_sc;
  EchoConn flood_sc;

  // Server-side echo pump: pops both tenants' connections, echoes every message back
  // (zero-copy: push then free; UAF protection pins the buffer until acked).
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
    (void)echo;  // a shed/full push loses the echo; the client side just sees a gap
    w.server.FreeSga(r->sga);
    c.echoes++;
    auto next = w.server.Pop(c.qd);
    if (next.ok()) {
      c.pop = *next;
    } else {
      c.open = false;
    }
  };

  // Client-side flooder: keeps kFloodWindow junk messages outstanding and pops echoes to keep
  // the window sliding. Push tokens complete inline; echo pops gate the refill.
  const std::string junk(kFloodMsgBytes, 'J');
  std::vector<QToken> flood_pops;
  bool flood_open = false;
  const auto pump_flooder = [&]() {
    if (!flood_open) {
      return;
    }
    for (size_t i = 0; i < flood_pops.size(); i++) {
      if (!w.client.IsDone(flood_pops[i])) {
        continue;
      }
      auto r = w.client.TryTake(flood_pops[i]);
      if (!r.ok() || r->status != Status::kOk) {
        flood_open = false;
        return;
      }
      out.flood_echoes++;
      w.client.FreeSga(r->sga);
      auto push = PushCopied(w.client, *flood_cqd, junk);
      if (!push.ok()) {
        flood_open = false;
        return;
      }
      auto pop = w.client.Pop(*flood_cqd);
      if (!pop.ok()) {
        flood_open = false;
        return;
      }
      flood_pops[i] = *pop;
    }
  };

  const auto step_world = [&]() {
    pump_server(victim_sc);
    pump_server(flood_sc);
    pump_flooder();
    w.Step();
  };
  const auto run_until = [&](auto&& pred) {
    for (int i = 0; i < 4'000'000; i++) {
      if (pred()) {
        return true;
      }
      if ((i & 1023) == 0 && dog.Expired()) {
        return false;
      }
      step_world();
    }
    return pred();
  };

  // Establish both connections and arm the server pumps.
  if (!run_until([&] {
        return w.server.IsDone(*victim_accept) && w.server.IsDone(*flood_accept) &&
               w.client.IsDone(*victim_connect) && w.client.IsDone(*flood_connect);
      })) {
    return out;
  }
  {
    auto va = w.server.TryTake(*victim_accept);
    auto fa = w.server.TryTake(*flood_accept);
    EXPECT_TRUE(va.ok() && va->status == Status::kOk);
    EXPECT_TRUE(fa.ok() && fa->status == Status::kOk);
    if (!va.ok() || !fa.ok()) {
      return out;
    }
    victim_sc.qd = va->new_qd;
    flood_sc.qd = fa->new_qd;
    EXPECT_TRUE(w.client.TryTake(*victim_connect).ok());
    EXPECT_TRUE(w.client.TryTake(*flood_connect).ok());
  }
  for (EchoConn* c : {&victim_sc, &flood_sc}) {
    auto pop = w.server.Pop(c->qd);
    EXPECT_TRUE(pop.ok());
    if (!pop.ok()) {
      return out;
    }
    c->pop = *pop;
    c->open = true;
  }
  // Prime the flood window.
  flood_open = true;
  for (int i = 0; i < kFloodWindow; i++) {
    auto push = PushCopied(w.client, *flood_cqd, junk);
    auto pop = w.client.Pop(*flood_cqd);
    EXPECT_TRUE(push.ok() && pop.ok());
    if (!pop.ok()) {
      return out;
    }
    flood_pops.push_back(*pop);
  }

  // Victim rounds: seeded random payloads, closed-loop, byte-exact echo required.
  Rng payload_rng(seed * 0x9E3779B9u + 7);
  std::vector<TimeNs> rtts;
  for (int round = 0; round < kVictimRounds; round++) {
    std::string msg;
    const size_t len = 64 + payload_rng.NextBounded(960);
    msg.reserve(len);
    for (size_t i = 0; i < len; i++) {
      msg.push_back(static_cast<char>('a' + payload_rng.NextBounded(26)));
    }
    const TimeNs start = w.clock.Now();
    auto push = PushCopied(w.client, *victim_cqd, msg);
    auto pop = w.client.Pop(*victim_cqd);
    EXPECT_TRUE(push.ok() && pop.ok());
    if (!push.ok() || !pop.ok()) {
      return out;
    }
    std::string echo;
    bool round_done = false;
    if (!run_until([&] {
          if (!w.client.IsDone(*pop)) {
            return false;
          }
          auto r = w.client.TryTake(*pop);
          if (!r.ok() || r->status != Status::kOk) {
            return true;  // connection died: leave round_done false
          }
          AppendSga(w.client, *r, &echo);
          if (echo.size() < msg.size()) {
            auto again = w.client.Pop(*victim_cqd);
            if (!again.ok()) {
              return true;
            }
            pop = *again;  // echo split across segments: keep popping
            return false;
          }
          round_done = true;
          return true;
        })) {
      ADD_FAILURE() << "victim round " << round << " timed out, " << ReplayHint(seed);
      return out;
    }
    if (!round_done) {
      ADD_FAILURE() << "victim connection died in round " << round << ", " << ReplayHint(seed);
      return out;
    }
    EXPECT_EQ(echo, msg) << "victim echo not byte-exact in round " << round << ", "
                         << ReplayHint(seed);
    rtts.push_back(w.clock.Now() - start);
    out.victim_transcript += msg;
  }

  std::sort(rtts.begin(), rtts.end());
  out.victim_rtt_p50 = rtts[rtts.size() / 2];
  out.victim_rtt_max = rtts.back();
  const auto flood_tx = w.server.ethernet().tx_scheduler().GetTenantTxStats(kFlooder);
  out.flooder_throttled = flood_tx.throttled;
  out.flooder_tx_bytes = flood_tx.tx_bytes;
  out.tenant_frames_dropped = w.faults.GetStats().tenant_frames_dropped;
  out.victim_echoes = victim_sc.echoes;
  out.completed = true;
  return out;
}

TEST(TenantChaosSoak, VictimSurvivesNoisyNeighborAcrossSeeds) {
  for (uint64_t seed : ChaosSeeds(20)) {
    Watchdog dog(30);
    SCOPED_TRACE(ReplayHint(seed));
    Outcome out = RunNoisyNeighborScenario(seed, dog);
    ASSERT_TRUE(out.completed) << "scenario did not complete, " << ReplayHint(seed);
    // The victim's stream stayed byte-exact (checked per round) and its latency bounded: the
    // flooder's backlog must not capture the link. Medians are sub-millisecond in a quiet
    // world; corruption-induced retransmits can stretch the tail, not the middle.
    EXPECT_LE(out.victim_rtt_p50, 50 * kMillisecond);
    EXPECT_LE(out.victim_rtt_max, 10 * kSecond);
    // The flood actually hit both control mechanisms: the token bucket queued its echoes, and
    // the tenant-scoped fault plan swallowed some of its frames.
    EXPECT_GT(out.flooder_throttled, 0u) << "flooder was never throttled";
    EXPECT_GT(out.tenant_frames_dropped, 0u) << "tenant_drop never fired";
    EXPECT_GT(out.victim_echoes, 0u);
  }
}

TEST(TenantChaosSoak, SameSeedReplaysToIdenticalOutcome) {
  const uint64_t seed = ChaosSeeds(20).front();
  Watchdog dog1(30);
  Outcome a = RunNoisyNeighborScenario(seed, dog1);
  Watchdog dog2(30);
  Outcome b = RunNoisyNeighborScenario(seed, dog2);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_TRUE(a == b) << "same seed diverged: transcripts "
                      << (a.victim_transcript == b.victim_transcript ? "match" : "differ")
                      << ", dropped " << a.tenant_frames_dropped << " vs "
                      << b.tenant_frames_dropped << ", " << ReplayHint(seed);
}

}  // namespace
}  // namespace demi
