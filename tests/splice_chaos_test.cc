// Chaos soak for the zero-copy splice path (docs/STORAGE.md, docs/FAULTS.md): a net→disk→net
// relay — client streams into the server, the server splices the connection into its log, then
// splices the log back out over a second connection — under seeded frame corruption, transient
// disk errors, completion delays, and torn writes.
//
// Invariants per seed:
//   - byte-exact: the relayed stream equals the sent stream despite every injected fault
//   - no terminal I/O errors: the retry budget absorbs every transient disk fault
//   - bounded retries: the log retried at most (1 + budget) attempts per record
//
// Seeds: DEMI_FAULT_SEED=<n> replays one seed; DEMI_CHAOS_SEEDS=<n> sets the soak width
// (default 20, like chaos_soak_test).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catnip.h"
#include "src/netsim/sim_network.h"
#include "src/storage/sim_block_device.h"
#include "tests/chaos_seeds.h"

namespace demi {
namespace {

std::string ReplayHint(uint64_t seed) {
  return "seed " + std::to_string(seed) +
         " — replay with: DEMI_FAULT_SEED=" + std::to_string(seed) + " ./splice_chaos_test";
}

// Rotates the fault emphasis across seeds so the soak covers disk-heavy, net-heavy and mixed
// schedules rather than twenty samples of one distribution.
FaultPlan PlanForSeed(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  switch (seed % 3) {
    case 0:  // disk-heavy: errors, delays and torn prefixes against the append pipeline
      plan.disk_error = 0.05;
      plan.disk_delay = 0.10;
      plan.disk_torn = 0.02;
      break;
    case 1:  // net-heavy: corrupted frames force TCP retransmits under the splice
      plan.net_corrupt = 0.02;
      plan.disk_error = 0.01;
      break;
    default:  // mixed
      plan.net_corrupt = 0.01;
      plan.disk_error = 0.02;
      plan.disk_delay = 0.05;
      plan.disk_torn = 0.01;
      break;
  }
  return plan;
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

// Deterministic two-host world on one VirtualClock, server with a log device attached.
struct SpliceWorld {
  explicit SpliceWorld(const FaultPlan& plan)
      : net(LinkConfig{}, /*seed=*/plan.seed + 0x51CE),
        disk(DiskConfig(), clock),
        server(net, ServerConfig(&disk), clock),
        client(net, ClientConfig(), clock) {
    server.ethernet().arp().Insert(client.local_ip(), MacAddr{0xC});
    client.ethernet().arp().Insert(server.local_ip(), MacAddr{0x5});
    faults.SetTracer(&server.tracer());
    net.SetFaultInjector(&faults);
    disk.SetFaultInjector(&faults);
    faults.Arm(plan);
  }

  static SimBlockDevice::Config DiskConfig() {
    SimBlockDevice::Config c;
    c.num_blocks = 4096;  // 16 MB
    return c;
  }

  static Catnip::Config ServerConfig(SimBlockDevice* d) {
    Catnip::Config c{MacAddr{0x5}, Ipv4Addr::FromOctets(10, 8, 0, 1), TcpConfig{}, d};
    c.checksum_offload = false;  // software checksums must catch the injected bit flips
    return c;
  }

  static Catnip::Config ClientConfig() {
    Catnip::Config c{MacAddr{0xC}, Ipv4Addr::FromOctets(10, 8, 0, 2), TcpConfig{}, nullptr};
    c.checksum_offload = false;
    return c;
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
  bool RunUntil(Pred&& pred, const Watchdog& dog, int max_steps = 4'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) {
        return true;
      }
      if ((i & 1023) == 0 && dog.Expired()) {
        return false;
      }
      Step();
    }
    return pred();
  }

  VirtualClock clock;
  SimNetwork net;
  SimBlockDevice disk;
  FaultInjector faults;
  Catnip server;
  Catnip client;
};

// One full relay under one seed: stream in, splice to disk, splice back out, byte-verify.
void RunRelaySeed(uint64_t seed) {
  SCOPED_TRACE(ReplayHint(seed));
  SpliceWorld w(PlanForSeed(seed));
  Watchdog dog;

  // Connection A: client → server, spliced into the log.
  auto listen_qd = w.server.Socket(SocketType::kStream);
  ASSERT_TRUE(listen_qd.ok());
  ASSERT_EQ(w.server.Bind(*listen_qd, {w.server.local_ip(), 7200}), Status::kOk);
  ASSERT_EQ(w.server.Listen(*listen_qd, 8), Status::kOk);
  auto accept_a = w.server.Accept(*listen_qd);
  ASSERT_TRUE(accept_a.ok());
  auto conn_a = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(conn_a.ok());
  auto connect_a = w.client.Connect(*conn_a, {w.server.local_ip(), 7200});
  ASSERT_TRUE(connect_a.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] { return w.client.IsDone(*connect_a) && w.server.IsDone(*accept_a); }, dog))
      << "connection A never established";
  ASSERT_EQ(w.client.TryTake(*connect_a)->status, Status::kOk);
  auto acc_a = w.server.TryTake(*accept_a);
  ASSERT_EQ(acc_a->status, Status::kOk);

  auto file_qd = w.server.Open("relay");
  ASSERT_TRUE(file_qd.ok());
  auto splice_in = w.server.Splice(acc_a->new_qd, *file_qd);
  ASSERT_TRUE(splice_in.ok());

  // Stream patterned chunks, then half-close so the inbound splice sees EOF.
  constexpr size_t kChunks = 30;
  std::vector<uint8_t> sent;
  for (size_t c = 0; c < kChunks; c++) {
    const size_t len = 512 + (c * 131 + seed * 17) % 1024;
    std::vector<uint8_t> chunk(len);
    for (size_t i = 0; i < len; i++) {
      chunk[i] = static_cast<uint8_t>(seed * 13 + c * 41 + i * 7);
    }
    sent.insert(sent.end(), chunk.begin(), chunk.end());
    void* buf = w.client.DmaMalloc(len);
    ASSERT_NE(buf, nullptr);
    std::memcpy(buf, chunk.data(), len);
    auto push = w.client.Push(*conn_a, Sgarray::Of(buf, static_cast<uint32_t>(len)));
    ASSERT_TRUE(push.ok());
    ASSERT_TRUE(w.RunUntil([&] { return w.client.IsDone(*push); }, dog));
    ASSERT_EQ(w.client.TryTake(*push)->status, Status::kOk);
    w.client.DmaFree(buf);
  }
  ASSERT_EQ(w.client.Close(*conn_a), Status::kOk);

  ASSERT_TRUE(w.RunUntil([&] { return w.server.IsDone(*splice_in); }, dog))
      << "inbound splice never completed";
  auto in_r = w.server.TryTake(*splice_in);
  ASSERT_EQ(in_r->status, Status::kOk) << "inbound splice failed";
  ASSERT_EQ(in_r->bytes, sent.size());

  // Connection B: the server splices the log back out; the client byte-verifies the replay.
  auto accept_b = w.server.Accept(*listen_qd);
  ASSERT_TRUE(accept_b.ok());
  auto conn_b = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(conn_b.ok());
  auto connect_b = w.client.Connect(*conn_b, {w.server.local_ip(), 7200});
  ASSERT_TRUE(connect_b.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] { return w.client.IsDone(*connect_b) && w.server.IsDone(*accept_b); }, dog))
      << "connection B never established";
  ASSERT_EQ(w.client.TryTake(*connect_b)->status, Status::kOk);
  auto acc_b = w.server.TryTake(*accept_b);
  ASSERT_EQ(acc_b->status, Status::kOk);

  auto replay_qd = w.server.Open("relay");
  ASSERT_TRUE(replay_qd.ok());
  auto splice_out = w.server.Splice(*replay_qd, acc_b->new_qd);
  ASSERT_TRUE(splice_out.ok());

  std::vector<uint8_t> received;
  while (received.size() < sent.size()) {
    auto pop = w.client.Pop(*conn_b);
    ASSERT_TRUE(pop.ok());
    ASSERT_TRUE(w.RunUntil([&] { return w.client.IsDone(*pop); }, dog))
        << "relay stalled at " << received.size() << "/" << sent.size() << " bytes";
    auto r = w.client.TryTake(*pop);
    ASSERT_EQ(r->status, Status::kOk);
    for (uint32_t i = 0; i < r->sga.num_segs; i++) {
      const uint8_t* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
      received.insert(received.end(), p, p + r->sga.segs[i].len);
    }
    w.client.FreeSga(r->sga);
  }
  ASSERT_TRUE(w.RunUntil([&] { return w.server.IsDone(*splice_out); }, dog));
  auto out_r = w.server.TryTake(*splice_out);
  ASSERT_EQ(out_r->status, Status::kOk) << "outbound splice failed";
  ASSERT_EQ(out_r->bytes, sent.size());

  // Byte-exactness across both splices despite every injected fault.
  ASSERT_EQ(received, sent) << "relayed stream diverged from the sent stream";

  // No fault may have leaked through the retry budget, and retries stay bounded.
  const LogDevice::Stats& ls = w.server.storage()->log().stats();
  EXPECT_EQ(ls.io_terminal_errors, 0u)
      << "transient faults must be absorbed by the retry budget";
  const uint64_t ops = ls.sg_appends + 1;  // records written (+1 slack for rounding)
  EXPECT_LE(ls.io_retries, ops * (1 + w.server.storage()->log().retry_policy().max_retries))
      << "retry volume exceeded the per-record budget";
  EXPECT_EQ(ls.bounce_bytes, 0u) << "faults must not push the splice off the zero-copy path";
  EXPECT_EQ(w.server.tokens().NumInUse(), 0u);
  EXPECT_EQ(w.client.tokens().NumInUse(), 0u);
}

TEST(SpliceChaosSoak, RelayIsByteExactUnderFaults) {
  for (const uint64_t seed : ChaosSeeds(20)) {
    RunRelaySeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace demi
