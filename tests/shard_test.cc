// Tests for ShardGroup: shared-nothing per-core Catnip shards over a multi-queue RSS NIC.
//
// These are the multi-worker integration tests of the Fig. 9 runtime: real worker threads
// busy-polling their own queue pairs, real TCP connections steered by the Toeplitz hash.
// Everything runs on a MonotonicClock (busy-polling threads would spin forever on an
// unadvanced VirtualClock). Suite names keep the `ShardGroup` prefix — the TSan job in
// scripts/run_sanitizers.sh runs this binary under `--gtest_filter='ShardGroup*'`.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/echo.h"
#include "src/apps/load_driver.h"
#include "src/apps/minikv.h"
#include "src/common/clock.h"
#include "src/core/shard_group.h"
#include "src/liboses/catnip.h"
#include "src/netsim/sim_network.h"
#include "src/storage/sim_block_device.h"

namespace demi {
namespace {

constexpr Ipv4Addr kServerIp = Ipv4Addr::FromOctets(10, 0, 0, 1);
constexpr MacAddr kServerMac{0xA1};

constexpr Ipv4Addr kClientIps[2] = {Ipv4Addr::FromOctets(10, 0, 0, 2),
                                    Ipv4Addr::FromOctets(10, 0, 0, 3)};
constexpr MacAddr kClientMacs[2] = {MacAddr{0xB2}, MacAddr{0xB3}};

ShardGroup::Options TwoWorkerOptions() {
  ShardGroup::Options opts;
  opts.num_workers = 2;
  opts.base = Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr};
  for (size_t i = 0; i < 2; i++) {
    opts.static_arp.emplace_back(kClientIps[i], kClientMacs[i]);
  }
  return opts;
}

std::unique_ptr<Catnip> MakeClient(SimNetwork& net, Clock& clock, size_t i) {
  Catnip::Config cfg{kClientMacs[i], kClientIps[i], TcpConfig{}, nullptr};
  auto os = std::make_unique<Catnip>(net, cfg, clock);
  os->ethernet().arp().Insert(kServerIp, kServerMac);
  return os;
}

// Opens one connection, echoes `rounds` patterned messages and byte-verifies every reply.
// Adds the echoed byte count to *bytes_echoed.
void ByteExactEchoRun(Catnip& os, SocketAddress server, size_t rounds, uint8_t tag,
                      uint64_t* bytes_echoed) {
  auto sock = os.Socket(SocketType::kStream);
  ASSERT_TRUE(sock.ok());
  auto cqt = os.Connect(*sock, server);
  ASSERT_TRUE(cqt.ok());
  auto cr = os.Wait(*cqt, 5 * kSecond);
  ASSERT_TRUE(cr.ok());
  ASSERT_EQ(cr->status, Status::kOk);

  for (size_t round = 0; round < rounds; round++) {
    const size_t len = 32 + (round * 37) % 96;
    auto pattern = [&](size_t i) { return static_cast<uint8_t>(tag ^ (round * 31 + i)); };
    void* buf = os.DmaMalloc(len);
    ASSERT_NE(buf, nullptr);
    for (size_t i = 0; i < len; i++) {
      static_cast<uint8_t*>(buf)[i] = pattern(i);
    }
    auto push_qt = os.Push(*sock, Sgarray::Of(buf, static_cast<uint32_t>(len)));
    ASSERT_TRUE(push_qt.ok());
    auto push_r = os.Wait(*push_qt, 5 * kSecond);
    os.DmaFree(buf);
    ASSERT_TRUE(push_r.ok());
    ASSERT_EQ(push_r->status, Status::kOk);

    size_t received = 0;
    while (received < len) {
      auto pop_qt = os.Pop(*sock);
      ASSERT_TRUE(pop_qt.ok());
      auto pop_r = os.Wait(*pop_qt, 5 * kSecond);
      ASSERT_TRUE(pop_r.ok());
      ASSERT_EQ(pop_r->status, Status::kOk);
      for (uint32_t s = 0; s < pop_r->sga.num_segs; s++) {
        const auto* p = static_cast<const uint8_t*>(pop_r->sga.segs[s].buf);
        for (uint32_t b = 0; b < pop_r->sga.segs[s].len; b++) {
          ASSERT_EQ(p[b], pattern(received)) << "byte " << received << " round " << round;
          received++;
        }
      }
      os.FreeSga(pop_r->sga);
    }
    ASSERT_EQ(received, len);
    *bytes_echoed += len;
  }
  EXPECT_EQ(os.Close(*sock), Status::kOk);
}

TEST(ShardGroupTest, TwoWorkerEchoIsByteExactAndUsesBothQueues) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/7);
  ShardGroup group(net, clock, TwoWorkerOptions());

  const SocketAddress server_addr{kServerIp, 7777};
  std::vector<EchoServerStats> per_shard;
  StartShardedEchoServer(group, EchoServerOptions{server_addr}, &per_shard);

  // 2 client hosts x 4 connections: each connection gets a fresh ephemeral port, so the RSS
  // hash scatters them across both shards. Sequential closed-loop runs on the main thread.
  uint64_t bytes_sent = 0;
  for (size_t c = 0; c < 2; c++) {
    auto client = MakeClient(net, clock, c);
    for (size_t conn = 0; conn < 4; conn++) {
      ByteExactEchoRun(*client, server_addr, /*rounds=*/20,
                       static_cast<uint8_t>(0x10 * (c + 1) + conn), &bytes_sent);
    }
  }

  group.RequestStop();
  group.Join();

  uint64_t served_bytes = 0;
  uint64_t connections = 0;
  ASSERT_EQ(per_shard.size(), 2u);
  for (const EchoServerStats& s : per_shard) {
    served_bytes += s.bytes;
    connections += s.connections;
  }
  EXPECT_EQ(served_bytes, bytes_sent);
  EXPECT_EQ(connections, 8u);
  // The whole point of RSS sharding: both queue pairs carried traffic.
  EXPECT_GT(group.nic().queue_stats(0).rx_frames, 0u);
  EXPECT_GT(group.nic().queue_stats(1).rx_frames, 0u);
  EXPECT_EQ(group.nic().stats().rx_frames,
            group.nic().queue_stats(0).rx_frames + group.nic().queue_stats(1).rx_frames);
}

TEST(ShardGroupTest, ShardedMiniKvServesSetsAndGets) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/11);
  ShardGroup group(net, clock, TwoWorkerOptions());

  const SocketAddress server_addr{kServerIp, 7070};
  std::vector<MiniKvStats> per_shard;
  StartShardedMiniKvServer(group, MiniKvOptions{server_addr}, &per_shard);

  // Each bench connection is pinned to one shard, so its keyspace lives wholly on that shard
  // (the redis-cluster model) and GET-after-SET stays consistent.
  uint64_t completed = 0;
  for (size_t c = 0; c < 2; c++) {
    auto client = MakeClient(net, clock, c);
    PdpixTransport link(*client, SocketType::kStream, {server_addr});
    KvCodec kv({.num_keys = 32, .value_size = 32, .seed = 100 + c});
    LoadResult r = RunLoad(link, kv, {.operations = 300, .window = 4});
    EXPECT_EQ(r.latency.count(), 300u);
    completed += r.latency.count();
  }

  group.RequestStop();
  group.Join();

  uint64_t served = 0;
  uint64_t connections = 0;
  for (const MiniKvStats& s : per_shard) {
    served += s.gets + s.sets + s.dels;
    connections += s.connections;
  }
  EXPECT_EQ(served, completed);
  EXPECT_EQ(connections, 2u);
}

TEST(ShardGroupTest, MetricsExportLabelsShardsAndRollupAggregates) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/5);
  ShardGroup group(net, clock, TwoWorkerOptions());

  const SocketAddress server_addr{kServerIp, 7171};
  StartShardedEchoServer(group, EchoServerOptions{server_addr});
  uint64_t bytes = 0;
  for (size_t c = 0; c < 2; c++) {
    auto client = MakeClient(net, clock, c);
    ByteExactEchoRun(*client, server_addr, /*rounds=*/5, static_cast<uint8_t>(0x40 + c), &bytes);
  }
  group.RequestStop();
  group.Join();

  const std::string text = group.ExportMetricsText();
  EXPECT_NE(text.find("shard=0"), std::string::npos);
  EXPECT_NE(text.find("shard=1"), std::string::npos);
  EXPECT_NE(text.find("rollup"), std::string::npos);
  EXPECT_NE(text.find("nic.queue_rx_frames"), std::string::npos);

  // The rollup sums per-queue counters across shards and matches the device totals.
  const auto rollup = group.AggregateSnapshot();
  uint64_t rolled_rx = 0;
  bool found_rx = false;
  bool found_workers = false;
  for (const auto& s : rollup) {
    EXPECT_NE(s.name, "shard.id");      // identity gauges are skipped
    EXPECT_NE(s.name, "nic.queue_id");  // likewise
    if (s.name == "nic.queue_rx_frames") {
      found_rx = true;
      rolled_rx = static_cast<uint64_t>(s.value);
    }
    if (s.name == "shard.workers") {
      found_workers = true;
      EXPECT_EQ(s.value, 2);  // reported, not summed
    }
  }
  ASSERT_TRUE(found_rx);
  ASSERT_TRUE(found_workers);
  EXPECT_EQ(rolled_rx, group.nic().stats().rx_frames);
}

TEST(ShardGroupTest, SingleWorkerBehavesLikeClassicCatnip) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/3);
  ShardGroup::Options opts;
  opts.num_workers = 1;
  opts.base = Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr};
  opts.static_arp.emplace_back(kClientIps[0], kClientMacs[0]);
  ShardGroup group(net, clock, opts);
  ASSERT_EQ(group.nic().num_queues(), 1u);

  const SocketAddress server_addr{kServerIp, 7272};
  std::vector<EchoServerStats> per_shard;
  StartShardedEchoServer(group, EchoServerOptions{server_addr}, &per_shard);

  uint64_t bytes = 0;
  auto client = MakeClient(net, clock, 0);
  ByteExactEchoRun(*client, server_addr, /*rounds=*/20, 0x77, &bytes);

  group.RequestStop();
  group.Join();
  ASSERT_EQ(per_shard.size(), 1u);
  EXPECT_EQ(per_shard[0].bytes, bytes);
  EXPECT_EQ(per_shard[0].connections, 1u);
}

// Shutdown drain regression: a pop still in flight when RequestStop lands — plus a completed
// pop whose sga the app never took — must not leak qtoken slots or heap buffers. WorkerMain
// calls DrainPendingTokens() on the owning thread before it exits; this pins that behavior.
TEST(ShardGroupTest, StopWithInflightPopsDrainsTokensAndBuffers) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/21);
  ShardGroup group(net, clock, TwoWorkerOptions());

  group.Start([&group](size_t /*shard_id*/, Catnip& os) {
    auto mq = os.MemoryQueue();
    ASSERT_TRUE(mq.ok());
    // Pop #1 completes with a buffer nobody ever takes: the drain must free its sga.
    void* msg = os.DmaMalloc(64);
    ASSERT_NE(msg, nullptr);
    std::memset(msg, 0x42, 64);
    auto push = os.Push(*mq, Sgarray::Of(msg, 64));
    ASSERT_TRUE(push.ok());
    os.DmaFree(msg);
    auto done_pop = os.Pop(*mq);
    ASSERT_TRUE(done_pop.ok());
    // Pop #2 stays pending forever: the drain must release its slot.
    auto pending_pop = os.Pop(*mq);
    ASSERT_TRUE(pending_pop.ok());
    group.ServeLoop(os, [] {});
  });

  group.RequestStop();
  group.Join();
  for (size_t i = 0; i < group.num_workers(); i++) {
    EXPECT_EQ(group.shard(i).tokens().NumInUse(), 0u) << "shard " << i << " leaked qtokens";
    EXPECT_EQ(group.shard(i).allocator().GetStats().live_objects, 0u)
        << "shard " << i << " leaked pop buffers";
  }
}

// Tenant isolation under real worker threads: every shard registers the tenant, the sharded
// echo server charges its listener (and thus every accepted connection) to it, and the
// per-shard token buckets account the TX bytes. Suite name keeps the `ShardGroup` prefix so
// the TSan job exercises the tenant datapath too.
TEST(ShardGroupTest, ShardedEchoUnderTenantAccountsEveryShard) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/23);
  ShardGroup group(net, clock, TwoWorkerOptions());

  constexpr TenantId kTenant = 7;
  const SocketAddress server_addr{kServerIp, 7878};
  EchoServerOptions options{server_addr};
  options.tenant = kTenant;
  std::vector<EchoServerStats> per_shard(group.num_workers());
  group.Start([&group, options, &per_shard](size_t shard_id, Catnip& os) {
    TenantConfig cfg;
    cfg.tx_rate_bps = 80'000'000;  // fast enough to never stall echo RTTs in real time
    cfg.tx_burst_bytes = 64 * 1024;
    cfg.tx_weight = 2;
    ASSERT_EQ(os.RegisterTenant(kTenant, cfg), Status::kOk);
    EchoServerApp app(os, options);
    group.ServeLoop(os, [&app] { app.Pump(); });
    per_shard[shard_id] = app.stats();
  });

  uint64_t bytes_sent = 0;
  for (size_t c = 0; c < 2; c++) {
    auto client = MakeClient(net, clock, c);
    for (size_t conn = 0; conn < 3; conn++) {
      ByteExactEchoRun(*client, server_addr, /*rounds=*/10,
                       static_cast<uint8_t>(0x20 * (c + 1) + conn), &bytes_sent);
    }
  }

  group.RequestStop();
  group.Join();

  uint64_t served = 0;
  uint64_t admitted = 0;
  uint64_t tenant_tx_bytes = 0;
  for (size_t i = 0; i < group.num_workers(); i++) {
    Catnip& shard = group.shard(i);
    EXPECT_TRUE(shard.tenants().IsRegistered(kTenant));
    served += per_shard[i].bytes;
    admitted += shard.tenants().GetStats(kTenant).accept_admitted;
    tenant_tx_bytes += shard.ethernet().tx_scheduler().GetTenantTxStats(kTenant).tx_bytes;
    EXPECT_EQ(shard.tokens().NumInUse(), 0u) << "shard " << i;
  }
  EXPECT_EQ(served, bytes_sent);
  EXPECT_EQ(admitted, 6u) << "every accepted connection must be admission-charged";
  // Every echoed byte crossed the rate-limited tenant's bucket, so the per-tenant TX
  // accounting must at least cover the payload bytes (headers come on top).
  EXPECT_GE(tenant_tx_bytes, bytes_sent);
}

// Deterministic per-(shard, record) payload so recovery checks can be byte-exact.
std::vector<uint8_t> ShardRecordPayload(size_t shard_id, size_t record) {
  const size_t len = 64 + (record * 13) % 128;
  std::vector<uint8_t> payload(len);
  for (size_t i = 0; i < len; i++) {
    payload[i] = static_cast<uint8_t>(0x40 * (shard_id + 1) ^ (record * 31 + i));
  }
  return payload;
}

// Multi-worker storage — the layout the EXPECT_DEATH test used to guard against: each shard's
// Cattree engine owns its own log partition and completion queue, so a 2-worker Catnip×Cattree
// group appends concurrently without sharing any datapath state but the epoch counter.
TEST(ShardGroupTest, MultiWorkerStoragePartitionedAppends) {
  constexpr size_t kRecordsPerShard = 24;
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/13);
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  ShardGroup::Options opts = TwoWorkerOptions();
  opts.base.disk = &disk;
  ShardGroup group(net, clock, opts);

  ASSERT_NE(group.partitioned_log(), nullptr);
  // Geometry: two contiguous non-overlapping ranges covering the whole device, ids = shard.
  const LogPartition p0 = group.partitioned_log()->partition(0);
  const LogPartition p1 = group.partitioned_log()->partition(1);
  EXPECT_EQ(p0.first_block, 0u);
  EXPECT_EQ(p1.first_block, p0.num_blocks);
  EXPECT_EQ((p0.num_blocks + p1.num_blocks) * disk.config().block_size, disk.CapacityBytes());
  EXPECT_EQ(p0.id, 0u);
  EXPECT_EQ(p1.id, 1u);

  group.Start([&](size_t shard_id, Catnip& os) {
    auto fqd = os.Open("log");
    ASSERT_TRUE(fqd.ok());
    for (size_t r = 0; r < kRecordsPerShard; r++) {
      const std::vector<uint8_t> payload = ShardRecordPayload(shard_id, r);
      void* buf = os.DmaMalloc(payload.size());
      ASSERT_NE(buf, nullptr);
      std::memcpy(buf, payload.data(), payload.size());
      auto qt = os.Push(*fqd, Sgarray::Of(buf, static_cast<uint32_t>(payload.size())));
      ASSERT_TRUE(qt.ok());
      auto res = os.Wait(*qt, 5 * kSecond);
      os.DmaFree(buf);
      ASSERT_TRUE(res.ok());
      EXPECT_EQ(res->status, Status::kOk) << "shard " << shard_id << " record " << r;
    }
  });
  group.RequestStop();
  group.Join();

  for (size_t i = 0; i < 2; i++) {
    EXPECT_GT(group.shard(i).storage()->log().tail(), 0u) << "shard " << i;
    EXPECT_EQ(group.shard(i).tokens().NumInUse(), 0u);
  }
  // Stitched recovery scan: every record from both partitions, globally ordered by epoch.
  std::vector<PartitionedLog::StitchedRecord> records;
  group.partitioned_log()->RecoverAll(&records);
  ASSERT_EQ(records.size(), 2 * kRecordsPerShard);
  uint64_t last_epoch = 0;
  size_t next_record[2] = {0, 0};
  for (const auto& rec : records) {
    EXPECT_GT(rec.epoch, last_epoch) << "epochs must be globally unique and ordered";
    last_epoch = rec.epoch;
    ASSERT_LT(rec.partition, 2u);
    const std::vector<uint8_t> expect =
        ShardRecordPayload(rec.partition, next_record[rec.partition]++);
    EXPECT_EQ(group.partitioned_log()->ReadPayload(rec), expect);
  }
  EXPECT_EQ(next_record[0], kRecordsPerShard);
  EXPECT_EQ(next_record[1], kRecordsPerShard);
}

// Restart byte-exactness: a second group over the same device recovers every partition's tail
// by scanning the media, and each shard pops back exactly the records it wrote pre-restart.
TEST(ShardGroupTest, MultiWorkerStoragePartitionedRecoveryAfterRestart) {
  constexpr size_t kRecordsPerShard = 12;
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/17);
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  ShardGroup::Options opts = TwoWorkerOptions();
  opts.base.disk = &disk;
  {
    ShardGroup group(net, clock, opts);
    group.Start([&](size_t shard_id, Catnip& os) {
      auto fqd = os.Open("log");
      ASSERT_TRUE(fqd.ok());
      for (size_t r = 0; r < kRecordsPerShard; r++) {
        const std::vector<uint8_t> payload = ShardRecordPayload(shard_id, r);
        void* buf = os.DmaMalloc(payload.size());
        ASSERT_NE(buf, nullptr);
        std::memcpy(buf, payload.data(), payload.size());
        auto qt = os.Push(*fqd, Sgarray::Of(buf, static_cast<uint32_t>(payload.size())));
        ASSERT_TRUE(qt.ok());
        auto res = os.Wait(*qt, 5 * kSecond);
        os.DmaFree(buf);
        ASSERT_TRUE(res.ok());
        EXPECT_EQ(res->status, Status::kOk);
      }
    });
    group.RequestStop();
    group.Join();
  }  // the first group (and its shards) is gone; only the media survives

  // Ports never detach from a fabric, so the "rebooted host" gets a fresh network; the disk —
  // the only thing recovery may rely on — is carried over.
  SimNetwork net2(LinkConfig{}, /*seed=*/18);
  ShardGroup restarted(net2, clock, opts);
  restarted.Start([&](size_t shard_id, Catnip& os) {
    EXPECT_GT(os.storage()->log().tail(), 0u) << "shard " << shard_id << " recovered nothing";
    auto fqd = os.Open("log");  // cursor starts at the recovered head
    ASSERT_TRUE(fqd.ok());
    for (size_t r = 0; r < kRecordsPerShard; r++) {
      auto qt = os.Pop(*fqd);
      ASSERT_TRUE(qt.ok());
      auto res = os.Wait(*qt, 5 * kSecond);
      ASSERT_TRUE(res.ok());
      ASSERT_EQ(res->status, Status::kOk) << "shard " << shard_id << " record " << r;
      const std::vector<uint8_t> expect = ShardRecordPayload(shard_id, r);
      ASSERT_EQ(res->sga.num_segs, 1u);
      ASSERT_EQ(res->sga.segs[0].len, expect.size());
      EXPECT_EQ(std::memcmp(res->sga.segs[0].buf, expect.data(), expect.size()), 0)
          << "shard " << shard_id << " record " << r << " not byte-exact after restart";
      os.FreeSga(res->sga);
    }
    // Nothing beyond the recovered tail: the next pop must report end-of-log.
    auto qt = os.Pop(*fqd);
    ASSERT_TRUE(qt.ok());
    auto res = os.Wait(*qt, 5 * kSecond);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res->status, Status::kEndOfFile);
  });
  restarted.RequestStop();
  restarted.Join();
}

}  // namespace
}  // namespace demi
