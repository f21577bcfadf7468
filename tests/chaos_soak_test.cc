// Chaos soak: echo and miniKV client/server pairs under randomized, seeded fault injection
// (docs/FAULTS.md). Every scenario is fully deterministic — all fault decisions flow from one
// seeded FaultPlan, the stacks run on a shared VirtualClock, and a failing seed replays exactly
// with DEMI_FAULT_SEED=<seed>.
//
// Invariants checked end to end:
//   - no hang: a wall-clock watchdog (reads steady_clock, never sleeps) bounds every scenario;
//   - byte-exact payloads: TCP echo streams and KV values survive corruption/loss/disk faults;
//   - consistent fault accounting: injector counters match substrate counters match app stats;
//   - graceful degradation only: no injected fault ever terminates the process — failures
//     surface as Status through qtoken completions.
//
// Environment knobs (see docs/FAULTS.md):
//   DEMI_FAULT_SEED=<n>          replay exactly one seed
//   DEMI_CHAOS_SEEDS=<n>         number of seeds to soak (default 20; 5 for the real-time
//                                multi-shard scenario)
//   DEMI_CHAOS_RETRY_BUDGET=<n>  override the storage retry budget (0 demonstrates the
//                                broken-build mode: terminal disk errors surface and the
//                                offending seed is printed for replay)

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/echo.h"
#include "src/apps/minikv.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/shard_group.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catnip.h"
#include "src/net/headers.h"
#include "src/netsim/sim_network.h"
#include "src/storage/sim_block_device.h"
#include "tests/chaos_seeds.h"

namespace demi {
namespace {

// --- Seed selection ---

std::string ReplayHint(uint64_t seed) {
  return "seed " + std::to_string(seed) +
         " — replay with: DEMI_FAULT_SEED=" + std::to_string(seed) + " ./chaos_soak_test";
}

uint32_t RetryBudgetFromEnv() {
  if (const char* b = std::getenv("DEMI_CHAOS_RETRY_BUDGET")) {
    return static_cast<uint32_t>(std::strtoul(b, nullptr, 10));
  }
  return LogDevice::RetryPolicy{}.max_retries;
}

// --- Wall-clock watchdog: reads steady_clock, never sleeps; virtual time drives the stacks ---

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

// --- The deterministic two-host world: client and server Catnip stacks on one VirtualClock ---

struct ChaosWorld {
  ChaosWorld(const FaultPlan& plan, TcpConfig server_tcp, TcpConfig client_tcp, bool with_disk,
             uint32_t retry_budget)
      : net(LinkConfig{}, /*seed=*/plan.seed + 0x5EED),
        disk(DiskConfig(), clock),
        server(net, ServerConfig(server_tcp, with_disk ? &disk : nullptr), clock),
        client(net, ClientConfig(client_tcp), clock) {
    server.ethernet().arp().Insert(client.local_ip(), MacAddr{0xC});
    client.ethernet().arp().Insert(server.local_ip(), MacAddr{0x5});
    if (server.storage() != nullptr) {
      LogDevice::RetryPolicy policy;
      policy.max_retries = retry_budget;
      server.storage()->log().set_retry_policy(policy);
    }
    faults.SetTracer(&server.tracer());
    faults.RegisterMetrics(server.metrics());
    net.SetFaultInjector(&faults);
    disk.SetFaultInjector(&faults);
    faults.Arm(plan);
  }

  static SimBlockDevice::Config DiskConfig() {
    SimBlockDevice::Config c;
    c.num_blocks = 4096;  // 16 MB: plenty for a chaos AOF, cheap to construct per seed
    return c;
  }

  static Catnip::Config ServerConfig(TcpConfig tcp, SimBlockDevice* d) {
    Catnip::Config c{MacAddr{0x5}, Ipv4Addr::FromOctets(10, 7, 0, 1), tcp, d};
    c.checksum_offload = false;  // software checksums must catch the injected bit flips
    return c;
  }

  static Catnip::Config ClientConfig(TcpConfig tcp) {
    Catnip::Config c{MacAddr{0xC}, Ipv4Addr::FromOctets(10, 7, 0, 2), tcp, nullptr};
    c.checksum_offload = false;
    return c;
  }

  // Advances virtual time to the earliest pending event (frame delivery, scheduler timer, disk
  // completion), or by 1 µs when fibers are merely yielding to each other.
  void AdvanceClock() {
    TimeNs next = 0;
    const auto consider = [&next](TimeNs t) {
      if (t != 0 && (next == 0 || t < next)) {
        next = t;
      }
    };
    consider(net.NextDeliveryTime());
    consider(server.scheduler().NextTimerDeadline());
    consider(client.scheduler().NextTimerDeadline());
    consider(disk.NextCompletionTime());
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

  // Declaration order doubles as destruction order (reversed): the libOSes go first, while the
  // injector, disk and network they point into are still alive.
  VirtualClock clock;
  SimNetwork net;
  SimBlockDevice disk;
  FaultInjector faults;
  Catnip server;
  Catnip client;
};

// Pushes `data` from a non-pool buffer (copy path) on `os`; returns the qtoken.
Result<QToken> PushCopied(Catnip& os, QueueDesc qd, const std::string& data) {
  // Safe to pass stack/heap memory: the libOS pins by copying before the call returns.
  return os.Push(qd, Sgarray::Of(const_cast<char*>(data.data()),
                                 static_cast<uint32_t>(data.size())));
}

void AppendSga(Catnip& os, QResult& r, std::string* out) {
  for (uint32_t i = 0; i < r.sga.num_segs; i++) {
    out->append(static_cast<const char*>(r.sga.segs[i].buf), r.sga.segs[i].len);
  }
  os.FreeSga(r.sga);
}

// --- Fault plans derived deterministically from the soak seed ---

FaultPlan EchoPlanForSeed(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE);
  FaultPlan p;
  p.seed = seed;
  p.net_corrupt = 0.01 + 0.04 * rng.NextDouble();
  // Exactly one flipped bit per corrupted frame: the Internet checksum provably detects every
  // single-bit error, but offsetting multi-bit flips (two opposite flips in the same 16-bit
  // column) cancel in the one's-complement sum and sail through undetected (Stone & Partridge,
  // SIGCOMM 2000). Byte-exactness is only assertable for corruption TCP can actually detect.
  p.net_corrupt_bits = 1;
  p.net_link_flap = 0.001 * rng.NextDouble();
  p.net_link_down_ns = 20 * kMicrosecond + rng.NextBounded(100) * kMicrosecond;
  p.net_partition = 0.0005 * rng.NextDouble();
  p.net_partition_ns = 100 * kMicrosecond + rng.NextBounded(200) * kMicrosecond;
  return p;
}

FaultPlan KvPlanForSeed(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD15C);
  FaultPlan p;
  p.seed = seed;
  p.net_corrupt = 0.005 + 0.015 * rng.NextDouble();
  p.net_corrupt_bits = 1;  // single-bit: always checksum-detectable (see EchoPlanForSeed)
  p.disk_error = 0.05 + 0.10 * rng.NextDouble();
  p.disk_delay = 0.10 + 0.10 * rng.NextDouble();
  p.disk_delay_ns = 50 * kMicrosecond + rng.NextBounded(200) * kMicrosecond;
  p.disk_torn = 0.02 + 0.03 * rng.NextDouble();
  return p;
}

// --- Echo scenario ---

// Counters sampled after a scenario; two runs of the same seed must produce identical values.
struct EchoFingerprint {
  uint64_t frames_corrupted = 0;
  uint64_t frames_dropped = 0;
  uint64_t link_flaps = 0;
  uint64_t partitions = 0;
  uint64_t rx_checksum_drops = 0;
  uint64_t parse_errors = 0;
  uint64_t bytes_echoed = 0;

  bool operator==(const EchoFingerprint&) const = default;
};

// ASSERT_* requires a void-returning function; the fingerprint travels via out-param.
void RunTcpEchoScenario(uint64_t seed, EchoFingerprint* out) {
  Watchdog dog;
  // Vary the ISN seed with the soak seed: replays pin it, distinct seeds exercise distinct
  // sequence-number spaces (satellite: TcpConfig::isn_seed).
  TcpConfig tcp;
  tcp.isn_seed = seed * 0xBEEF + 1;
  ChaosWorld w(EchoPlanForSeed(seed), tcp, tcp, /*with_disk=*/false, RetryBudgetFromEnv());
  w.server.tracer().Enable(4096);

  EchoServerOptions opts;
  opts.listen = {w.server.local_ip(), 7777};
  EchoServerApp app(w.server, opts);

  auto cqd = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto conn_qt = w.client.Connect(*cqd, {w.server.local_ip(), 7777});
  ASSERT_TRUE(conn_qt.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] {
        app.Pump();
        return w.client.IsDone(*conn_qt);
      },
      dog))
      << "connect hung under chaos";
  auto conn_r = w.client.TryTake(*conn_qt);
  ASSERT_TRUE(conn_r.ok());
  ASSERT_EQ(conn_r->status, Status::kOk);

  // Seeded message mix: sizes span one-segment and multi-segment sends. 60 messages keeps the
  // frame volume high enough for every seed's corruption draw to land even though batching
  // (MSS coalescing + delayed acks) roughly halves frames-per-byte.
  Rng payload_rng(seed * 7919 + 3);
  std::string sent_all;
  std::vector<std::string> messages;
  for (int i = 0; i < 60; i++) {
    std::string m(1 + payload_rng.NextBounded(1200), '\0');
    for (char& ch : m) {
      ch = static_cast<char>('a' + payload_rng.NextBounded(26));
    }
    sent_all += m;
    messages.push_back(std::move(m));
  }

  std::string rx_all;
  size_t next_to_send = 0;
  std::optional<QToken> push_qt;
  auto pop = w.client.Pop(*cqd);
  ASSERT_TRUE(pop.ok());
  QToken pop_qt = *pop;
  Status stream_error = Status::kOk;

  const bool done = w.RunUntil(
      [&] {
        app.Pump();
        if (w.client.IsDone(pop_qt)) {
          auto r = w.client.TryTake(pop_qt);
          if (r.ok() && r->status == Status::kOk) {
            AppendSga(w.client, *r, &rx_all);
            auto next = w.client.Pop(*cqd);
            if (next.ok()) {
              pop_qt = *next;
            }
          } else if (r.ok()) {
            stream_error = r->status;
            return true;
          }
        }
        if (push_qt.has_value() && w.client.IsDone(*push_qt)) {
          auto r = w.client.TryTake(*push_qt);
          if (r.ok() && r->status != Status::kOk) {
            stream_error = r->status;
            return true;
          }
          push_qt.reset();
        }
        if (!push_qt.has_value() && next_to_send < messages.size()) {
          auto qt = PushCopied(w.client, *cqd, messages[next_to_send]);
          if (qt.ok()) {
            push_qt = *qt;
            next_to_send++;
          }
        }
        return rx_all.size() >= sent_all.size();
      },
      dog);

  EXPECT_TRUE(done) << "echo soak hung (watchdog/step budget)";
  EXPECT_EQ(stream_error, Status::kOk);
  EXPECT_EQ(rx_all.size(), sent_all.size());
  EXPECT_TRUE(rx_all == sent_all) << "echoed bytes differ from sent bytes";

  // Fault accounting is consistent across layers.
  const FaultInjector::Stats fs = w.faults.GetStats();
  const SimNetwork::Stats ns = w.net.GetStats();
  EXPECT_EQ(fs.frames_corrupted, ns.frames_corrupted);
  EXPECT_EQ(fs.frames_dropped, ns.frames_dropped_fault);
  EXPECT_GT(fs.frames_corrupted, 0u) << "plan should have injected corruption";

  // The software checksums (or parsers) must have caught at least some of the injected flips —
  // flips can also land in L2/L3 headers, so sum every defensive counter before judging.
  const uint64_t caught = w.server.tcp().stats().rx_checksum_drops +
                          w.client.tcp().stats().rx_checksum_drops +
                          w.server.tcp().stats().parse_errors +
                          w.client.tcp().stats().parse_errors +
                          w.server.ethernet().stats().parse_errors +
                          w.client.ethernet().stats().parse_errors;
  if (fs.frames_corrupted > 50) {
    EXPECT_GT(caught, 0u) << "no layer noticed " << fs.frames_corrupted << " corrupted frames";
  }

  // Every injected fault is visible through the observability layer: metrics...
  size_t fault_metrics = 0;
  for (const auto& sample : w.server.metrics().Snapshot()) {
    if (sample.component == "faults") {
      fault_metrics++;
      if (sample.name == "faults.frames_corrupted") {
        EXPECT_EQ(static_cast<uint64_t>(sample.value), fs.frames_corrupted);
      }
    }
  }
  EXPECT_EQ(fault_metrics, 9u) << "faults.* metric family incomplete";

  // ...and trace events.
  bool saw_fault_event = false;
  for (const TraceEvent& e : w.server.tracer().Drain()) {
    if (e.type == TraceEventType::kFaultFrameCorrupt || e.type == TraceEventType::kFaultLinkFlap ||
        e.type == TraceEventType::kFaultPartition) {
      saw_fault_event = true;
      break;
    }
  }
  EXPECT_TRUE(saw_fault_event) << "injected faults left no kFault* trace events";

  if (out != nullptr) {
    out->frames_corrupted = fs.frames_corrupted;
    out->frames_dropped = fs.frames_dropped;
    out->link_flaps = fs.link_flaps;
    out->partitions = fs.partitions;
    out->rx_checksum_drops =
        w.server.tcp().stats().rx_checksum_drops + w.client.tcp().stats().rx_checksum_drops;
    out->parse_errors = w.server.tcp().stats().parse_errors + w.client.tcp().stats().parse_errors;
    out->bytes_echoed = rx_all.size();
  }
}

TEST(ChaosSoakTest, TcpEchoSurvivesSeededChaos) {
  for (uint64_t seed : ChaosSeeds(20)) {
    SCOPED_TRACE(ReplayHint(seed));
    RunTcpEchoScenario(seed, nullptr);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(ChaosSoakTest, SameSeedReplaysToIdenticalCounters) {
  EchoFingerprint first, second;
  SCOPED_TRACE(ReplayHint(7));
  RunTcpEchoScenario(7, &first);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  RunTcpEchoScenario(7, &second);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_TRUE(first == second) << "seed 7 did not replay deterministically: corrupted "
                               << first.frames_corrupted << " vs " << second.frames_corrupted
                               << ", echoed " << first.bytes_echoed << " vs "
                               << second.bytes_echoed;
}

// --- MiniKV scenario (Catnip×Cattree server: network + persistent AOF under disk faults) ---

// Length-framed KV client speaking the miniKV wire protocol over one stepped TCP connection.
class SteppedKvClient {
 public:
  SteppedKvClient(ChaosWorld& w, MiniKvServerApp& app, QueueDesc qd)
      : w_(w), app_(app), qd_(qd) {
    auto pop = w_.client.Pop(qd_);
    EXPECT_TRUE(pop.ok());
    pop_qt_ = *pop;
  }

  // Closed-loop request: send, then step the world until one response frame arrives.
  bool Call(KvOp op, const std::string& key, const std::string& value, KvStatus* status_out,
            std::string* value_out, const Watchdog& dog) {
    uint8_t buf[4096];
    const size_t n = KvEncodeRequest(op, key, value, buf, sizeof(buf));
    if (n == 0) {
      return false;
    }
    std::string wire(reinterpret_cast<const char*>(buf), n);
    auto push = PushCopied(w_.client, qd_, wire);
    if (!push.ok()) {
      return false;
    }
    bool push_done = false;
    std::optional<std::pair<KvStatus, std::string>> response;
    const bool ok = w_.RunUntil(
        [&] {
          app_.Pump();
          if (!push_done && w_.client.IsDone(*push)) {
            auto r = w_.client.TryTake(*push);
            if (!r.ok() || r->status != Status::kOk) {
              return true;  // push failed; surfaces below as !response
            }
            push_done = true;
          }
          PumpPop();
          response = TakeFrame();
          return response.has_value();
        },
        dog);
    if (!ok || !response.has_value()) {
      return false;
    }
    *status_out = response->first;
    if (value_out != nullptr) {
      *value_out = response->second;
    }
    return true;
  }

 private:
  void PumpPop() {
    if (!w_.client.IsDone(pop_qt_)) {
      return;
    }
    auto r = w_.client.TryTake(pop_qt_);
    if (r.ok() && r->status == Status::kOk) {
      for (uint32_t i = 0; i < r->sga.num_segs; i++) {
        const uint8_t* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
        acc_.insert(acc_.end(), p, p + r->sga.segs[i].len);
      }
      w_.client.FreeSga(r->sga);
      auto next = w_.client.Pop(qd_);
      if (next.ok()) {
        pop_qt_ = *next;
      }
    }
  }

  std::optional<std::pair<KvStatus, std::string>> TakeFrame() {
    if (acc_.size() < 4) {
      return std::nullopt;
    }
    uint32_t frame_len;
    std::memcpy(&frame_len, acc_.data(), 4);
    if (acc_.size() - 4 < frame_len) {
      return std::nullopt;
    }
    KvResponseView resp;
    std::optional<std::pair<KvStatus, std::string>> out;
    if (KvParseResponse(std::span<const uint8_t>(acc_.data() + 4, frame_len), &resp)) {
      out = {resp.status, std::string(resp.value)};
    }
    acc_.erase(acc_.begin(), acc_.begin() + 4 + frame_len);
    return out;
  }

  ChaosWorld& w_;
  MiniKvServerApp& app_;
  QueueDesc qd_;
  QToken pop_qt_{};
  std::vector<uint8_t> acc_;
};

void RunMiniKvScenario(uint64_t seed) {
  Watchdog dog;
  const uint32_t retry_budget = RetryBudgetFromEnv();
  TcpConfig tcp;
  tcp.isn_seed = seed * 0xBEEF + 1;
  ChaosWorld w(KvPlanForSeed(seed), tcp, tcp, /*with_disk=*/true, retry_budget);
  w.server.tracer().Enable(4096);

  MiniKvOptions opts;
  opts.listen = {w.server.local_ip(), 6379};
  opts.persist = true;
  opts.aof_path = "chaos.aof";
  MiniKvServerApp app(w.server, opts);

  auto cqd = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto conn_qt = w.client.Connect(*cqd, {w.server.local_ip(), 6379});
  ASSERT_TRUE(conn_qt.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] {
        app.Pump();
        return w.client.IsDone(*conn_qt);
      },
      dog));
  auto conn_r = w.client.TryTake(*conn_qt);
  ASSERT_TRUE(conn_r.ok());
  ASSERT_EQ(conn_r->status, Status::kOk);

  SteppedKvClient kv(w, app, *cqd);
  Rng rng(seed * 104729 + 11);
  std::unordered_map<std::string, std::string> expected;

  // 40 SETs over 20 keys (overwrites included), every one acknowledged durable.
  for (int i = 0; i < 40; i++) {
    const std::string key = "key:" + std::to_string(rng.NextBounded(20));
    std::string value(1 + rng.NextBounded(256), '\0');
    for (char& ch : value) {
      ch = static_cast<char>('A' + rng.NextBounded(26));
    }
    KvStatus status = KvStatus::kError;
    ASSERT_TRUE(kv.Call(KvOp::kSet, key, value, &status, nullptr, dog))
        << "SET " << i << " hung or failed to complete";
    EXPECT_EQ(status, KvStatus::kOk) << "SET " << i << " not acknowledged durable";
    expected[key] = std::move(value);
  }

  // Read everything back byte-exact.
  for (const auto& [key, value] : expected) {
    KvStatus status = KvStatus::kError;
    std::string got;
    ASSERT_TRUE(kv.Call(KvOp::kGet, key, "", &status, &got, dog)) << "GET hung";
    EXPECT_EQ(status, KvStatus::kOk);
    EXPECT_TRUE(got == value) << "GET " << key << " returned wrong bytes";
  }

  // Deletes take effect.
  const std::string victim = expected.begin()->first;
  KvStatus status = KvStatus::kError;
  ASSERT_TRUE(kv.Call(KvOp::kDel, victim, "", &status, nullptr, dog));
  EXPECT_EQ(status, KvStatus::kOk);
  ASSERT_TRUE(kv.Call(KvOp::kGet, victim, "", &status, nullptr, dog));
  EXPECT_EQ(status, KvStatus::kNotFound);

  // The retry budget must have absorbed every transient disk fault: nothing terminal, no SET
  // degraded to kError. With DEMI_CHAOS_RETRY_BUDGET=0 this is the assertion that fails and
  // prints the offending seed.
  EXPECT_EQ(app.stats().aof_failures, 0u)
      << "AOF appends failed terminally (retry budget " << retry_budget << ")";
  const LogDevice::Stats& ls = w.server.storage()->log().stats();
  EXPECT_EQ(ls.io_terminal_errors, 0u);

  // Fault accounting is consistent from injector to device to log engine.
  const FaultInjector::Stats fs = w.faults.GetStats();
  EXPECT_EQ(w.disk.GetStats().io_errors, fs.disk_io_errors);
  EXPECT_EQ(ls.io_retries + ls.io_terminal_errors, fs.disk_io_errors)
      << "every error completion must be either retried or terminal";
  EXPECT_GT(fs.disk_io_errors + fs.disk_delays, 0u) << "plan should have injected disk faults";

  // Replay the AOF from the head: the recovered store must equal the final expected map.
  auto aof_qd = w.server.Open("chaos.aof");
  ASSERT_TRUE(aof_qd.ok());
  std::unordered_map<std::string, std::string> replayed;
  bool eof = false;
  while (!eof) {
    auto pop = w.server.Pop(*aof_qd);
    ASSERT_TRUE(pop.ok());
    std::optional<QResult> rec;
    ASSERT_TRUE(w.RunUntil(
        [&] {
          if (!w.server.IsDone(*pop)) {
            return false;
          }
          auto r = w.server.TryTake(*pop);
          if (r.ok()) {
            rec = *r;
          }
          return true;
        },
        dog))
        << "AOF replay hung";
    ASSERT_TRUE(rec.has_value());
    if (rec->status == Status::kEndOfFile) {
      eof = true;
      break;
    }
    ASSERT_EQ(rec->status, Status::kOk) << "AOF record unreadable after chaos";
    std::string frame;
    AppendSga(w.server, *rec, &frame);
    KvRequestView req;
    ASSERT_TRUE(KvParseRequest(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(frame.data()), frame.size()),
        &req))
        << "torn/corrupt record survived in the AOF";
    ASSERT_EQ(req.op, KvOp::kSet);
    replayed[std::string(req.key)] = std::string(req.value);
  }
  // The deleted key was acknowledged before deletion; replay includes it by design (an AOF of
  // SETs only), so compare against the pre-delete expectation.
  EXPECT_EQ(replayed.size(), expected.size());
  for (const auto& [key, value] : expected) {
    auto it = replayed.find(key);
    ASSERT_TRUE(it != replayed.end()) << "acked SET missing from AOF: " << key;
    EXPECT_TRUE(it->second == value) << "AOF value differs for " << key;
  }

  // Disk fault trace events made it to the observability layer.
  if (fs.disk_io_errors > 0) {
    bool saw_disk_fault = false;
    for (const TraceEvent& e : w.server.tracer().Drain()) {
      if (e.type == TraceEventType::kFaultDiskError || e.type == TraceEventType::kFaultTornWrite ||
          e.type == TraceEventType::kFaultDiskDelay) {
        saw_disk_fault = true;
        break;
      }
    }
    EXPECT_TRUE(saw_disk_fault);
  }
}

TEST(ChaosSoakTest, MiniKvPersistenceSurvivesSeededChaos) {
  for (uint64_t seed : ChaosSeeds(20)) {
    SCOPED_TRACE(ReplayHint(seed));
    RunMiniKvScenario(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// --- Targeted graceful-degradation tests ---

// Pool exhaustion surfaces kNoMemory through the push qtoken — and the RX side counts, drops
// and recovers via retransmission once memory frees up. No aborts anywhere.
TEST(ChaosSoakTest, AllocFailureSurfacesEnomemAndRecovers) {
  Watchdog dog;
  ChaosWorld w(FaultPlan{}, TcpConfig{}, TcpConfig{}, /*with_disk=*/false, 6);

  EchoServerOptions opts;
  opts.listen = {w.server.local_ip(), 7800};
  EchoServerApp app(w.server, opts);

  auto cqd = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto conn_qt = w.client.Connect(*cqd, {w.server.local_ip(), 7800});
  ASSERT_TRUE(conn_qt.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] {
        app.Pump();
        return w.client.IsDone(*conn_qt);
      },
      dog));
  ASSERT_EQ(w.client.TryTake(*conn_qt)->status, Status::kOk);

  // TX side: every allocation fails → the push (copy path: non-pool source buffer) completes
  // with kNoMemory instead of aborting the process.
  FaultPlan all_allocs_fail;
  all_allocs_fail.seed = 42;
  all_allocs_fail.alloc_fail = 1.0;
  w.client.allocator().SetFaultInjector(&w.faults);
  w.faults.Arm(all_allocs_fail);
  const std::string msg = "must not crash";
  auto push = PushCopied(w.client, *cqd, msg);
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(w.RunUntil([&] { return w.client.IsDone(*push); }, dog));
  EXPECT_EQ(w.client.TryTake(*push)->status, Status::kNoMemory);
  EXPECT_GT(w.faults.GetStats().alloc_failures, 0u);

  // Recovery: disarm and the same push succeeds end to end.
  w.faults.Disarm();
  std::string rx;
  auto pop = w.client.Pop(*cqd);
  ASSERT_TRUE(pop.ok());
  auto push2 = PushCopied(w.client, *cqd, msg);
  ASSERT_TRUE(push2.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] {
        app.Pump();
        if (w.client.IsDone(*pop)) {
          auto r = w.client.TryTake(*pop);
          if (r.ok() && r->status == Status::kOk) {
            AppendSga(w.client, *r, &rx);
          }
          return true;
        }
        return false;
      },
      dog));
  EXPECT_EQ(rx, msg);

  // RX side: the server's heap runs dry mid-stream; the stack counts and drops without
  // advancing rcv_nxt, then the sender's retransmission delivers once memory returns. The
  // client's allocator must heal first or the push itself would fail.
  w.client.allocator().SetFaultInjector(nullptr);
  w.server.allocator().SetFaultInjector(&w.faults);
  w.faults.Arm(all_allocs_fail);
  std::string rx2;
  auto pop2 = w.client.Pop(*cqd);
  ASSERT_TRUE(pop2.ok());
  auto push3 = PushCopied(w.client, *cqd, msg);
  ASSERT_TRUE(push3.ok());
  ASSERT_TRUE(w.RunUntil([&] { return w.server.tcp().stats().rx_alloc_drops > 0; }, dog))
      << "server never hit the injected RX allocation failure";
  w.faults.Disarm();
  ASSERT_TRUE(w.RunUntil(
      [&] {
        app.Pump();
        if (w.client.IsDone(*pop2)) {
          auto r = w.client.TryTake(*pop2);
          if (r.ok() && r->status == Status::kOk) {
            AppendSga(w.client, *r, &rx2);
          }
          return true;
        }
        return false;
      },
      dog))
      << "retransmission did not recover the dropped segment";
  EXPECT_EQ(rx2, msg);
}

// Under 100% injected loss an established connection exhausts max_retransmits and aborts with
// kConnectionAborted, which reaches the pending pop qtoken (and subsequent pushes).
TEST(ChaosSoakTest, TotalLossAbortsConnectionThroughQtokens) {
  Watchdog dog;
  TcpConfig tcp;
  tcp.max_retransmits = 6;
  ChaosWorld w(FaultPlan{}, tcp, tcp, /*with_disk=*/false, 6);

  EchoServerOptions opts;
  opts.listen = {w.server.local_ip(), 7900};
  EchoServerApp app(w.server, opts);

  auto cqd = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto conn_qt = w.client.Connect(*cqd, {w.server.local_ip(), 7900});
  ASSERT_TRUE(conn_qt.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] {
        app.Pump();
        return w.client.IsDone(*conn_qt);
      },
      dog));
  ASSERT_EQ(w.client.TryTake(*conn_qt)->status, Status::kOk);

  // Prove the connection works, then kill the link completely.
  auto pop = w.client.Pop(*cqd);
  ASSERT_TRUE(pop.ok());
  auto push = PushCopied(w.client, *cqd, "healthy");
  ASSERT_TRUE(push.ok());
  std::string echoed;
  ASSERT_TRUE(w.RunUntil(
      [&] {
        app.Pump();
        if (w.client.IsDone(*pop)) {
          auto r = w.client.TryTake(*pop);
          if (r.ok() && r->status == Status::kOk) {
            AppendSga(w.client, *r, &echoed);
          }
          return true;
        }
        return false;
      },
      dog));
  ASSERT_EQ(echoed, "healthy");

  FaultPlan dead_link;
  dead_link.seed = 99;
  dead_link.net_link_flap = 1.0;
  dead_link.net_link_down_ns = 10 * kSecond;
  w.faults.Arm(dead_link);

  auto doomed_pop = w.client.Pop(*cqd);
  ASSERT_TRUE(doomed_pop.ok());
  auto doomed_push = PushCopied(w.client, *cqd, "into the void");
  ASSERT_TRUE(doomed_push.ok());

  ASSERT_TRUE(w.RunUntil([&] { return w.client.IsDone(*doomed_pop); }, dog))
      << "abort never reached the pending pop qtoken";
  EXPECT_EQ(w.client.TryTake(*doomed_pop)->status, Status::kConnectionAborted);
  EXPECT_GT(w.faults.GetStats().frames_dropped, 0u);

  // Pushes after the abort observe the terminal status through their qtokens too.
  auto late_push = PushCopied(w.client, *cqd, "too late");
  ASSERT_TRUE(late_push.ok());
  ASSERT_TRUE(w.RunUntil([&] { return w.client.IsDone(*late_push); }, dog));
  EXPECT_EQ(w.client.TryTake(*late_push)->status, Status::kConnectionAborted);
}

// Zero-window persist probes must NOT count toward the retransmit abort limit: a receiver that
// stalls for much longer than max_retransmits RTOs keeps the connection alive, and every byte
// arrives once it drains.
TEST(ChaosSoakTest, ZeroWindowPersistDoesNotCountTowardAbort) {
  Watchdog dog;
  TcpConfig client_tcp;
  client_tcp.max_retransmits = 3;  // would abort fast if persist probes counted
  TcpConfig server_tcp;
  server_tcp.recv_buffer_bytes = 8192;  // tiny window: fills quickly
  ChaosWorld w(FaultPlan{}, server_tcp, client_tcp, /*with_disk=*/false, 6);

  // Manual server that accepts but does not pop: the receive buffer fills and the advertised
  // window closes.
  auto sqd = w.server.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(w.server.Bind(*sqd, {w.server.local_ip(), 7950}), Status::kOk);
  ASSERT_EQ(w.server.Listen(*sqd, 4), Status::kOk);
  auto accept_qt = w.server.Accept(*sqd);
  ASSERT_TRUE(accept_qt.ok());

  auto cqd = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto conn_qt = w.client.Connect(*cqd, {w.server.local_ip(), 7950});
  ASSERT_TRUE(conn_qt.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] { return w.client.IsDone(*conn_qt) && w.server.IsDone(*accept_qt); }, dog));
  ASSERT_EQ(w.client.TryTake(*conn_qt)->status, Status::kOk);
  auto acc_r = w.server.TryTake(*accept_qt);
  ASSERT_TRUE(acc_r.ok());
  ASSERT_EQ(acc_r->status, Status::kOk);
  const QueueDesc server_conn = acc_r->new_qd;

  // 64 KB into an 8 KB window: most of it parks behind a zero window.
  Rng rng(4242);
  std::string payload(64 * 1024, '\0');
  for (char& ch : payload) {
    ch = static_cast<char>('0' + rng.NextBounded(10));
  }
  auto push = PushCopied(w.client, *cqd, payload);
  ASSERT_TRUE(push.ok());

  // Stall in zero-window for 30 virtual seconds — far beyond 3 retransmits of backoff. If
  // persist probes counted toward the abort limit, the connection would be dead by now.
  const TimeNs deadline = w.clock.Now() + 30 * kSecond;
  ASSERT_TRUE(w.RunUntil([&] { return w.clock.Now() >= deadline; }, dog));

  // Drain: every byte must arrive, in order, on the never-aborted connection.
  std::string rx;
  bool failed = false;
  std::optional<QToken> pop_qt;  // exactly one server-side pop outstanding
  ASSERT_TRUE(w.RunUntil(
      [&] {
        if (rx.size() >= payload.size()) {
          return true;
        }
        if (!pop_qt.has_value()) {
          auto pop = w.server.Pop(server_conn);
          if (!pop.ok()) {
            failed = true;
            return true;
          }
          pop_qt = *pop;
        }
        if (w.server.IsDone(*pop_qt)) {
          auto r = w.server.TryTake(*pop_qt);
          pop_qt.reset();
          if (!r.ok() || r->status != Status::kOk) {
            failed = true;
            return true;
          }
          AppendSga(w.server, *r, &rx);
        }
        return false;
      },
      dog))
      << "zero-window drain hung";
  EXPECT_FALSE(failed) << "connection aborted during zero-window persist";
  EXPECT_EQ(rx.size(), payload.size());
  EXPECT_TRUE(rx == payload);
}

// A SYN flood from thousands of spoofed sources must cost the server nothing — with SYN
// cookies on, every half-open "connection" lives entirely inside the 32-bit ISS of a
// stateless SYN-ACK (docs/SCALING.md §2). This goes through the real wire (software
// checksums, ARP, the NIC queue), unlike syn_cookie_test's direct-injection variant, and
// proves the service stays up for a legitimate client DURING the flood's aftermath.
TEST(ChaosSoakTest, SynFloodWithCookiesAllocatesNothingAndServiceSurvives) {
  Watchdog dog;
  TcpConfig server_tcp;
  server_tcp.syn_cookies = true;
  ChaosWorld w(FaultPlan{}, server_tcp, TcpConfig{}, /*with_disk=*/false, 6);

  // Spoofed SYN-ACK replies go to a MAC with no attached port: they vanish at the switch.
  // Pre-warming the ARP cache keeps the flood measuring TCB cost, not ARP-pending queues.
  constexpr MacAddr kSpoofMac{0xEE};
  constexpr int kSpoofIps = 256;
  for (int i = 0; i < kSpoofIps; i++) {
    w.server.ethernet().arp().Insert(Ipv4Addr::FromOctets(10, 9, 1, static_cast<uint8_t>(i)),
                                     kSpoofMac);
  }

  auto sqd = w.server.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(w.server.Bind(*sqd, {w.server.local_ip(), 7777}), Status::kOk);
  ASSERT_EQ(w.server.Listen(*sqd, 8), Status::kOk);
  auto accept_qt = w.server.Accept(*sqd);
  ASSERT_TRUE(accept_qt.ok());

  // ChaosWorld disables checksum offload, so crafted frames need real checksums.
  auto deliver_syn = [&](Ipv4Addr src_ip, uint16_t src_port, uint32_t iss) {
    TcpHeader syn;
    syn.src_port = src_port;
    syn.dst_port = 7777;
    syn.seq = iss;
    syn.flags.syn = true;
    syn.window = 65535;
    syn.mss_option = 1460;
    Ipv4Header ip;
    ip.protocol = IpProto::kTcp;
    ip.src = src_ip;
    ip.dst = w.server.local_ip();
    ip.total_length = static_cast<uint16_t>(Ipv4Header::kSize + syn.SerializedSize());
    WireFrame frame(EthernetHeader::kSize + Ipv4Header::kSize + syn.SerializedSize());
    EthernetHeader{MacAddr{0x5}, kSpoofMac, EtherType::kIpv4}.Serialize(frame.data());
    ip.Serialize(frame.data() + EthernetHeader::kSize);
    syn.Serialize(frame.data() + EthernetHeader::kSize + Ipv4Header::kSize, ip.src, ip.dst,
                  std::span<const uint8_t>{});
    w.net.Deliver(kSpoofMac, MacAddr{0x5}, std::move(frame), w.clock.Now());
  };

  // Warm-up burst: let the pool allocator reserve its steady-state RX chunks before the
  // baseline is taken, so the flat-memory assertion below measures the flood, not startup.
  Rng rng(0xF100D);
  auto spoofed = [&] {
    return std::make_pair(
        Ipv4Addr::FromOctets(10, 9, 1, static_cast<uint8_t>(rng.NextBounded(kSpoofIps))),
        static_cast<uint16_t>(10000 + rng.NextBounded(50000)));
  };
  for (int i = 0; i < 64; i++) {
    auto [ip, port] = spoofed();
    deliver_syn(ip, port, static_cast<uint32_t>(rng.Next()));
    w.Step();
  }
  ASSERT_TRUE(w.RunUntil([&] { return w.net.NextDeliveryTime() == 0; }, dog));
  const size_t heap_baseline = w.server.allocator().GetStats().bytes_reserved;
  const size_t slab_baseline = w.server.tcp().tcb_slab().ReservedBytes();
  const uint64_t warmup_cookies = w.server.tcp().stats().syn_cookies_sent;

  // The flood proper: 4000 spoofed SYNs, a few per poll so the NIC ring never taildrops.
  constexpr uint64_t kFlood = 4000;
  for (uint64_t i = 0; i < kFlood; i++) {
    auto [ip, port] = spoofed();
    deliver_syn(ip, port, static_cast<uint32_t>(rng.Next()));
    if ((i & 3) == 3) {
      w.Step();
    }
  }
  ASSERT_TRUE(w.RunUntil(
      [&] { return w.server.tcp().stats().syn_cookies_sent >= warmup_cookies + kFlood; }, dog))
      << "server did not answer every flood SYN";

  // The half-open flood allocated NOTHING: no TCBs, no slab growth, no heap growth.
  EXPECT_EQ(w.server.tcp().NumConnections(), 0u);
  EXPECT_EQ(w.server.tcp().tcb_slab().live(), 0u);
  EXPECT_EQ(w.server.tcp().tcb_slab().ReservedBytes(), slab_baseline);
  EXPECT_EQ(w.server.allocator().GetStats().bytes_reserved, heap_baseline);
  EXPECT_EQ(w.server.tcp().stats().syn_cookies_validated, 0u);
  EXPECT_EQ(w.server.tcp().stats().rst_sent, 0u);

  // Service survives: a legitimate client completes a cookie handshake and gets its echo.
  auto cqd = w.client.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto conn_qt = w.client.Connect(*cqd, {w.server.local_ip(), 7777});
  ASSERT_TRUE(conn_qt.ok());
  ASSERT_TRUE(w.RunUntil(
      [&] { return w.client.IsDone(*conn_qt) && w.server.IsDone(*accept_qt); }, dog))
      << "legitimate handshake starved by the flood";
  ASSERT_EQ(w.client.TryTake(*conn_qt)->status, Status::kOk);
  auto acc = w.server.TryTake(*accept_qt);
  ASSERT_TRUE(acc.ok());
  ASSERT_EQ(acc->status, Status::kOk);
  EXPECT_EQ(w.server.tcp().stats().syn_cookies_validated, 1u);

  const std::string msg = "still serving through the flood";
  auto push = PushCopied(w.client, *cqd, msg);
  ASSERT_TRUE(push.ok());
  auto pop = w.server.Pop(acc->new_qd);
  ASSERT_TRUE(pop.ok());
  ASSERT_TRUE(w.RunUntil([&] { return w.server.IsDone(*pop); }, dog));
  auto rx = w.server.TryTake(*pop);
  ASSERT_TRUE(rx.ok());
  ASSERT_EQ(rx->status, Status::kOk);
  std::string got;
  AppendSga(w.server, *rx, &got);
  EXPECT_EQ(got, msg);
}

// --- Multi-shard scenario: two shared-nothing workers under seeded corruption ---
//
// Unlike everything above, this runs in REAL time: shard workers busy-poll on their own
// threads, so the world lives on a MonotonicClock and the thread interleaving (and with it
// the exact fault counters) is not replayable. The invariants checked are the thread-safe
// subset: no hang (watchdog + per-op timeouts), byte-exact echo through BOTH RSS queues, and
// graceful recovery — every corrupted segment is caught by the software checksums and healed
// by retransmission, never by aborting.

FaultPlan ShardPlanForSeed(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x54A8D);
  FaultPlan p;
  p.seed = seed;
  // Modest rate: every drop costs a real-time RTO here, not a virtual one.
  p.net_corrupt = 0.005 + 0.015 * rng.NextDouble();
  p.net_corrupt_bits = 1;  // single-bit: always checksum-detectable (see EchoPlanForSeed)
  return p;
}

// Byte-exact closed-loop echo over one connection; every reply byte is verified against the
// deterministic pattern. Adds echoed bytes to *bytes_echoed.
void ShardedEchoConnection(Catnip& os, SocketAddress server, size_t rounds, uint8_t tag,
                           const Watchdog& dog, uint64_t* bytes_echoed) {
  auto sock = os.Socket(SocketType::kStream);
  ASSERT_TRUE(sock.ok());
  auto cqt = os.Connect(*sock, server);
  ASSERT_TRUE(cqt.ok());
  auto cr = os.Wait(*cqt, 10 * kSecond);
  ASSERT_TRUE(cr.ok()) << "connect hung under sharded chaos";
  ASSERT_EQ(cr->status, Status::kOk);

  for (size_t round = 0; round < rounds && !dog.Expired(); round++) {
    const size_t len = 16 + (round * 293) % 1200;
    auto pattern = [&](size_t i) { return static_cast<uint8_t>(tag ^ (round * 31 + i)); };
    void* buf = os.DmaMalloc(len);
    ASSERT_NE(buf, nullptr);
    for (size_t i = 0; i < len; i++) {
      static_cast<uint8_t*>(buf)[i] = pattern(i);
    }
    auto push_qt = os.Push(*sock, Sgarray::Of(buf, static_cast<uint32_t>(len)));
    ASSERT_TRUE(push_qt.ok());
    auto push_r = os.Wait(*push_qt, 10 * kSecond);
    os.DmaFree(buf);
    ASSERT_TRUE(push_r.ok());
    ASSERT_EQ(push_r->status, Status::kOk);

    size_t received = 0;
    while (received < len) {
      auto pop_qt = os.Pop(*sock);
      ASSERT_TRUE(pop_qt.ok());
      auto pop_r = os.Wait(*pop_qt, 10 * kSecond);
      ASSERT_TRUE(pop_r.ok()) << "echo reply hung (round " << round << ")";
      ASSERT_EQ(pop_r->status, Status::kOk);
      for (uint32_t s = 0; s < pop_r->sga.num_segs; s++) {
        const auto* p = static_cast<const uint8_t*>(pop_r->sga.segs[s].buf);
        for (uint32_t b = 0; b < pop_r->sga.segs[s].len; b++) {
          ASSERT_EQ(p[b], pattern(received))
              << "corrupted byte slipped through (byte " << received << " round " << round << ")";
          received++;
        }
      }
      os.FreeSga(pop_r->sga);
    }
    *bytes_echoed += len;
  }
  EXPECT_FALSE(dog.Expired()) << "sharded echo connection ran out of watchdog budget";
  EXPECT_EQ(os.Close(*sock), Status::kOk);
}

// Runs one 2-worker scenario; accumulates fault/defense counters into the out-params.
void RunShardedEchoChaosScenario(uint64_t seed, uint64_t* corrupted_total,
                                 uint64_t* caught_total) {
  Watchdog dog(60);
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/seed + 0x5EED);
  FaultInjector faults;
  net.SetFaultInjector(&faults);
  faults.Arm(ShardPlanForSeed(seed));

  TcpConfig tcp;
  tcp.isn_seed = seed * 0xBEEF + 1;
  tcp.initial_rto = 2 * kMillisecond;  // corruption drops cost wall-clock time in this test
  tcp.min_rto = 500 * kMicrosecond;

  const Ipv4Addr server_ip = Ipv4Addr::FromOctets(10, 7, 1, 1);
  const MacAddr server_mac{0x51};
  const Ipv4Addr client_ips[2] = {Ipv4Addr::FromOctets(10, 7, 1, 2),
                                  Ipv4Addr::FromOctets(10, 7, 1, 3)};
  const MacAddr client_macs[2] = {MacAddr{0xC1}, MacAddr{0xC2}};

  ShardGroup::Options opts;
  opts.num_workers = 2;
  opts.base = Catnip::Config{server_mac, server_ip, tcp, nullptr};
  opts.base.checksum_offload = false;  // software checksums must catch the injected flips
  for (size_t i = 0; i < 2; i++) {
    opts.static_arp.emplace_back(client_ips[i], client_macs[i]);
  }
  ShardGroup group(net, clock, opts);

  const SocketAddress server_addr{server_ip, 7878};
  std::vector<EchoServerStats> per_shard;
  StartShardedEchoServer(group, EchoServerOptions{server_addr}, &per_shard);

  // 2 client hosts x 3 connections each: fresh ephemeral ports scatter the six flows across
  // both shards. Clients run closed-loop on this thread while the workers busy-poll.
  uint64_t bytes_sent = 0;
  uint64_t client_caught = 0;
  for (size_t c = 0; c < 2 && !dog.Expired(); c++) {
    Catnip::Config ccfg{client_macs[c], client_ips[c], tcp, nullptr};
    ccfg.checksum_offload = false;
    Catnip client(net, ccfg, clock);
    client.ethernet().arp().Insert(server_ip, server_mac);
    for (size_t conn = 0; conn < 3 && !dog.Expired(); conn++) {
      ShardedEchoConnection(client, server_addr, /*rounds=*/12,
                            static_cast<uint8_t>(0x20 * (c + 1) + conn), dog, &bytes_sent);
      if (::testing::Test::HasFatalFailure()) {
        break;
      }
    }
    client_caught += client.tcp().stats().rx_checksum_drops + client.tcp().stats().parse_errors +
                     client.ethernet().stats().parse_errors;
  }

  group.RequestStop();
  group.Join();
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  // Byte accounting holds across both shards, and both RSS queues carried traffic.
  uint64_t served_bytes = 0;
  for (const EchoServerStats& s : per_shard) {
    served_bytes += s.bytes;
  }
  EXPECT_EQ(served_bytes, bytes_sent);
  EXPECT_GT(group.nic().queue_stats(0).rx_frames, 0u) << "queue 0 idle: RSS steering broken";
  EXPECT_GT(group.nic().queue_stats(1).rx_frames, 0u) << "queue 1 idle: RSS steering broken";

  // Injector and fabric agree on what was injected (quiesced: workers joined).
  const FaultInjector::Stats fs = faults.GetStats();
  EXPECT_EQ(fs.frames_corrupted, net.GetStats().frames_corrupted);
  *corrupted_total += fs.frames_corrupted;
  for (size_t i = 0; i < 2; i++) {
    Catnip& shard = group.shard(i);
    *caught_total += shard.tcp().stats().rx_checksum_drops + shard.tcp().stats().parse_errors +
                     shard.ethernet().stats().parse_errors;
  }
  *caught_total += client_caught;
}

TEST(ChaosSoakTest, ShardedEchoSurvivesSeededChaos) {
  uint64_t corrupted = 0;
  uint64_t caught = 0;
  for (uint64_t seed : ChaosSeeds(5)) {  // real time: keep the default soak short
    SCOPED_TRACE("sharded " + ReplayHint(seed));
    RunShardedEchoChaosScenario(seed, &corrupted, &caught);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // Across the soak the plans must have injected corruption and some layer must have caught
  // flips (per-seed counts are interleaving-dependent, so only the totals are assertable).
  EXPECT_GT(corrupted, 0u) << "no corruption injected across the whole sharded soak";
  if (corrupted > 20) {
    EXPECT_GT(caught, 0u) << "no layer noticed " << corrupted << " corrupted frames";
  }
}

// --- FaultPlan parsing and environment plumbing ---

TEST(FaultPlanTest, ParsesKeyValueSpecs) {
  std::string error;
  auto plan = FaultPlan::Parse(
      "seed=9,net_corrupt=0.25,net_corrupt_bits=4,disk_error=0.5,alloc_fail=0.125,"
      "net_link_flap=0.01,net_link_down_ns=50000,disk_delay=0.1,disk_delay_ns=200000,"
      "disk_torn=0.02,net_partition=0.005,net_partition_ns=300000",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_DOUBLE_EQ(plan->net_corrupt, 0.25);
  EXPECT_EQ(plan->net_corrupt_bits, 4u);
  EXPECT_DOUBLE_EQ(plan->disk_error, 0.5);
  EXPECT_DOUBLE_EQ(plan->alloc_fail, 0.125);
  EXPECT_EQ(plan->net_link_down_ns, static_cast<DurationNs>(50000));
  EXPECT_TRUE(plan->Any());

  // Round-trip through ToString.
  auto again = FaultPlan::Parse(plan->ToString(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_DOUBLE_EQ(again->net_corrupt, plan->net_corrupt);
  EXPECT_EQ(again->seed, plan->seed);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse("bogus_key=1", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::Parse("net_corrupt=1.5", &error).has_value());  // probability > 1
  EXPECT_FALSE(FaultPlan::Parse("net_corrupt=abc", &error).has_value());
  EXPECT_FALSE(FaultPlan::Parse("net_corrupt_bits=0", &error).has_value());
  EXPECT_FALSE(FaultPlan::Parse("seed", &error).has_value());  // missing '='
  EXPECT_TRUE(FaultPlan::Parse("", &error).has_value());       // empty spec = default plan
  EXPECT_FALSE(FaultPlan{}.Any());
}

TEST(FaultPlanTest, FromEnvOverridesSeedAndPlan) {
  ::unsetenv("DEMI_FAULT_PLAN");
  ::unsetenv("DEMI_FAULT_SEED");
  EXPECT_FALSE(FaultPlan::FromEnv().has_value());

  ::setenv("DEMI_FAULT_SEED", "1234", 1);
  auto seed_only = FaultPlan::FromEnv();
  ASSERT_TRUE(seed_only.has_value());
  EXPECT_EQ(seed_only->seed, 1234u);

  ::setenv("DEMI_FAULT_PLAN", "net_corrupt=0.1,seed=5", 1);
  auto both = FaultPlan::FromEnv();
  ASSERT_TRUE(both.has_value());
  EXPECT_DOUBLE_EQ(both->net_corrupt, 0.1);
  EXPECT_EQ(both->seed, 1234u);  // DEMI_FAULT_SEED wins over the plan's seed

  ::unsetenv("DEMI_FAULT_SEED");
  auto plan_only = FaultPlan::FromEnv();
  ASSERT_TRUE(plan_only.has_value());
  EXPECT_EQ(plan_only->seed, 5u);

  ::setenv("DEMI_FAULT_PLAN", "not a plan", 1);
  EXPECT_FALSE(FaultPlan::FromEnv().has_value());
  ::unsetenv("DEMI_FAULT_PLAN");
}

}  // namespace
}  // namespace demi
