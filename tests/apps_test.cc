// Integration tests for the µs-scale applications (echo, MiniKv, TxnStore/YCSB, UDP relay,
// MiniRpc), running client and server on separate threads like the benchmarks do.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/echo.h"
#include "src/apps/minikv.h"
#include "src/apps/minirpc.h"
#include "src/apps/txnstore.h"
#include "src/apps/udp_relay.h"
#include "src/liboses/catmint.h"
#include "src/liboses/catnap.h"
#include "src/liboses/catnip.h"

namespace demi {
namespace {

uint16_t NextPort() {
  static std::atomic<uint16_t> port{static_cast<uint16_t>(31000 + (getpid() % 400) * 60)};
  return port++;
}

constexpr Ipv4Addr kServerIp = Ipv4Addr::FromOctets(10, 5, 0, 1);
constexpr Ipv4Addr kClientIp = Ipv4Addr::FromOctets(10, 5, 0, 2);
constexpr MacAddr kServerMac{0x51};
constexpr MacAddr kClientMac{0x52};

TEST(EchoAppTest, CatnipTcpEchoThreaded) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  std::atomic<bool> stop{false};
  EchoServerStats sstats;

  std::thread server_thread([&] {
    Catnip server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    Catnip* client_handle = nullptr;
    (void)client_handle;
    // ARP: server learns the client on demand via broadcast; warm nothing here.
    RunEchoServer(server, EchoServerOptions{{kServerIp, 9000}, SocketType::kStream}, stop,
                  &sstats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9000};
  copts.type = SocketType::kStream;
  copts.message_size = 64;
  copts.iterations = 500;
  copts.warmup = 50;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();

  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 500u);
  EXPECT_GT(result.rtt.Mean(), 0.0);
  EXPECT_GE(sstats.requests, 500u);
  EXPECT_EQ(sstats.connections, 1u);
}

TEST(EchoAppTest, CatnipUdpEchoThreaded) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 2);
  std::atomic<bool> stop{false};

  std::thread server_thread([&] {
    Catnip server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    RunEchoServer(server, EchoServerOptions{{kServerIp, 9001}, SocketType::kDatagram}, stop);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9001};
  copts.type = SocketType::kDatagram;
  copts.message_size = 64;
  copts.iterations = 500;
  copts.warmup = 50;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  if (result.errors != 0) {
    std::fputs(client.metrics().ExportText().c_str(), stderr);
  }
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 500u);
}

TEST(EchoAppTest, CatmintEchoThreaded) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 3);
  std::atomic<bool> stop{false};

  std::thread server_thread([&] {
    Catmint server(net, Catmint::Config{kServerMac, kServerIp}, clock);
    server.AddPeer(kClientIp, kClientMac);
    RunEchoServer(server, EchoServerOptions{{kServerIp, 9002}, SocketType::kStream}, stop);
  });

  ::usleep(20'000);  // let the server register its listener before connecting
  Catmint client(net, Catmint::Config{kClientMac, kClientIp}, clock);
  client.AddPeer(kServerIp, kServerMac);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9002};
  copts.message_size = 64;
  copts.iterations = 500;
  copts.warmup = 50;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  if (result.errors != 0) {
    std::fputs(client.metrics().ExportText().c_str(), stderr);
  }
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 500u);
}

// The server's reply push runs out of Catmint credits because the client has popped nothing
// yet. Pump must park that push and return instead of waiting on it: the client is only
// driven between pumps, so a wait inside Pump never ends.
TEST(EchoAppTest, CatmintServerPumpNeverBlocksOnCredits) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 5);
  Catmint::Config scfg{kServerMac, kServerIp};
  Catmint::Config ccfg{kClientMac, kClientIp};
  scfg.send_window_msgs = 2;
  ccfg.send_window_msgs = 2;
  Catmint server(net, scfg, clock);
  Catmint client(net, ccfg, clock);
  server.AddPeer(kClientIp, kClientMac);
  client.AddPeer(kServerIp, kServerMac);
  EchoServerApp app(server, EchoServerOptions{{kServerIp, 9004}, SocketType::kStream});
  auto drive = [&] {
    client.PollOnce();
    server.PollOnce();
    app.Pump();
  };
  auto wait = [&](QToken qt) {
    for (int i = 0; i < 2'000'000 && !client.IsDone(qt); i++) {
      drive();
    }
    auto r = client.TryTake(qt);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : QResult{};
  };

  auto sock = client.Socket(SocketType::kStream);
  ASSERT_TRUE(sock.ok());
  auto connect = client.Connect(*sock, {kServerIp, 9004});
  ASSERT_TRUE(connect.ok());
  ASSERT_EQ(wait(*connect).status, Status::kOk);

  const std::vector<std::string> messages = {"first", "second", "third"};
  for (const std::string& m : messages) {
    void* buf = client.DmaMalloc(m.size());
    std::memcpy(buf, m.data(), m.size());
    ASSERT_TRUE(client.Push(*sock, Sgarray::Of(buf, static_cast<uint32_t>(m.size()))).ok());
    client.DmaFree(buf);
  }
  for (int i = 0; i < 2'000'000 && app.stats().requests < messages.size(); i++) {
    drive();
  }
  ASSERT_EQ(app.stats().requests, messages.size());

  std::string replies;
  while (replies.size() < 16) {
    auto pop = client.Pop(*sock);
    ASSERT_TRUE(pop.ok());
    QResult r = wait(*pop);
    ASSERT_EQ(r.status, Status::kOk);
    for (uint32_t i = 0; i < r.sga.num_segs; i++) {
      replies.append(static_cast<const char*>(r.sga.segs[i].buf), r.sga.segs[i].len);
    }
    client.FreeSga(r.sga);
  }
  EXPECT_EQ(replies, "firstsecondthird");
}

TEST(EchoAppTest, CatnapEchoOverLoopback) {
  MonotonicClock clock;
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};

  std::thread server_thread([&] {
    Catnap server(clock);
    RunEchoServer(server, EchoServerOptions{addr, SocketType::kStream}, stop);
  });
  ::usleep(20'000);
  Catnap client(clock);
  EchoClientOptions copts;
  copts.server = addr;
  copts.message_size = 64;
  copts.iterations = 200;
  copts.warmup = 20;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 200u);
}

TEST(EchoAppTest, PosixEchoBaseline) {
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  std::thread server_thread(
      [&] { RunPosixEchoServer(EchoServerOptions{addr, SocketType::kStream}, stop, nullptr); });
  ::usleep(20'000);
  EchoClientOptions copts;
  copts.server = addr;
  copts.message_size = 64;
  copts.iterations = 200;
  copts.warmup = 20;
  auto result = RunPosixEchoClient(copts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 200u);
}

TEST(EchoAppTest, CatnipCattreeEchoWithLogging) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 4);
  std::atomic<bool> stop{false};
  EchoServerStats sstats;

  std::thread server_thread([&] {
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    Catnip::Config cfg{kServerMac, kServerIp, TcpConfig{}, nullptr};
    cfg.disk = &disk;
    Catnip server(net, cfg, clock);
    EchoServerOptions opts{{kServerIp, 9003}, SocketType::kStream};
    opts.log_to_disk = true;
    RunEchoServer(server, opts, stop, &sstats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9003};
  copts.message_size = 64;
  copts.iterations = 200;
  copts.warmup = 20;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GE(sstats.requests, 200u);
}

TEST(MiniKvTest, SetGetDelOverCatnip) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 5);
  std::atomic<bool> stop{false};
  MiniKvStats kv_stats;

  std::thread server_thread([&] {
    Catnip server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    RunMiniKvServer(server, MiniKvOptions{{kServerIp, 9100}}, stop, &kv_stats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  // SET workload.
  KvBenchOptions bopts;
  bopts.server = {kServerIp, 9100};
  bopts.num_keys = 100;
  bopts.value_size = 64;
  bopts.operations = 1000;
  bopts.pipeline = 8;
  bopts.do_sets = true;
  auto set_result = RunKvBenchClient(client, bopts);
  EXPECT_EQ(set_result.completed, 1000u);
  // GET workload over the same keyspace: everything should hit.
  bopts.do_sets = false;
  auto get_result = RunKvBenchClient(client, bopts);
  EXPECT_EQ(get_result.completed, 1000u);
  stop = true;
  server_thread.join();
  EXPECT_EQ(kv_stats.sets, 1000u);
  EXPECT_EQ(kv_stats.gets, 1000u);
  EXPECT_EQ(kv_stats.hits, 1000u);  // all keys were set first
}

TEST(MiniKvTest, PersistentSetsOverCatnipCattree) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 6);
  std::atomic<bool> stop{false};
  MiniKvStats kv_stats;

  std::thread server_thread([&] {
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    Catnip::Config cfg{kServerMac, kServerIp, TcpConfig{}, nullptr};
    cfg.disk = &disk;
    Catnip server(net, cfg, clock);
    MiniKvOptions opts{{kServerIp, 9101}};
    opts.persist = true;
    RunMiniKvServer(server, opts, stop, &kv_stats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  KvBenchOptions bopts;
  bopts.server = {kServerIp, 9101};
  bopts.num_keys = 50;
  bopts.value_size = 64;
  bopts.operations = 300;
  bopts.pipeline = 4;
  bopts.do_sets = true;
  auto result = RunKvBenchClient(client, bopts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.completed, 300u);
  EXPECT_EQ(kv_stats.sets, 300u);
}

TEST(MiniKvTest, PosixServerAndClient) {
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  MiniKvStats kv_stats;
  std::thread server_thread([&] { RunPosixMiniKvServer(MiniKvOptions{addr}, stop, &kv_stats); });
  ::usleep(20'000);
  KvBenchOptions bopts;
  bopts.server = addr;
  bopts.num_keys = 100;
  bopts.operations = 500;
  bopts.pipeline = 8;
  bopts.do_sets = true;
  auto result = RunPosixKvBenchClient(bopts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.completed, 500u);
  EXPECT_EQ(kv_stats.sets, 500u);
}

TEST(MiniKvTest, ProtocolEncodingRoundTrip) {
  uint8_t buf[256];
  const size_t n = KvEncodeRequest(KvOp::kSet, "key1", "value1", buf, sizeof(buf));
  ASSERT_GT(n, 4u);
  KvRequestView req;
  ASSERT_TRUE(KvParseRequest({buf + 4, n - 4}, &req));
  EXPECT_EQ(req.op, KvOp::kSet);
  EXPECT_EQ(req.key, "key1");
  EXPECT_EQ(req.value, "value1");

  const size_t m = KvEncodeResponse(KvStatus::kOk, "resp", buf, sizeof(buf));
  KvResponseView resp;
  ASSERT_TRUE(KvParseResponse({buf + 4, m - 4}, &resp));
  EXPECT_EQ(resp.status, KvStatus::kOk);
  EXPECT_EQ(resp.value, "resp");

  // Empty default-constructed views (null data()) encode as zero-length fields.
  const size_t g = KvEncodeRequest(KvOp::kGet, "key1", std::string_view{}, buf, sizeof(buf));
  ASSERT_TRUE(KvParseRequest({buf + 4, g - 4}, &req));
  EXPECT_EQ(req.key, "key1");
  EXPECT_TRUE(req.value.empty());
  const size_t e = KvEncodeResponse(KvStatus::kNotFound, std::string_view{}, buf, sizeof(buf));
  ASSERT_TRUE(KvParseResponse({buf + 4, e - 4}, &resp));
  EXPECT_EQ(resp.status, KvStatus::kNotFound);
  EXPECT_TRUE(resp.value.empty());

  // Malformed frames are rejected, not crashed on.
  EXPECT_FALSE(KvParseRequest({buf, 3}, &req));
  uint8_t bad[16] = {99};
  EXPECT_FALSE(KvParseRequest({bad, sizeof(bad)}, &req));
}

TEST(TxnStoreTest, YcsbFOverCatnipThreeReplicas) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 7);
  std::atomic<bool> stop{false};
  const Ipv4Addr replica_ips[3] = {Ipv4Addr::FromOctets(10, 6, 0, 1),
                                   Ipv4Addr::FromOctets(10, 6, 0, 2),
                                   Ipv4Addr::FromOctets(10, 6, 0, 3)};
  std::vector<std::thread> replicas;
  for (int i = 0; i < 3; i++) {
    replicas.emplace_back([&, i] {
      Catnip server(net, Catnip::Config{MacAddr{uint64_t(0x60 + i)}, replica_ips[i], TcpConfig{}, nullptr}, clock);
      RunMiniKvServer(server, MiniKvOptions{{replica_ips[i], 9200}}, stop);
    });
  }

  Catnip client(net, Catnip::Config{kClientMac, Ipv4Addr::FromOctets(10, 6, 0, 9), TcpConfig{}, nullptr}, clock);
  YcsbOptions opts;
  opts.replicas = {{replica_ips[0], 9200}, {replica_ips[1], 9200}, {replica_ips[2], 9200}};
  opts.num_keys = 100;
  opts.transactions = 300;
  opts.value_size = 700;
  auto result = RunYcsbFClient(client, opts);
  stop = true;
  for (auto& t : replicas) {
    t.join();
  }
  EXPECT_EQ(result.committed, 300u);
  EXPECT_EQ(result.txn_latency.count(), 300u);
  EXPECT_GT(result.txn_latency.P99(), result.txn_latency.P50() / 2);
}

TEST(TxnStoreTest, RawRdmaKvYcsb) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 8);
  std::atomic<bool> stop{false};
  const MacAddr replica_macs[3] = {MacAddr{0x71}, MacAddr{0x72}, MacAddr{0x73}};
  std::vector<std::thread> replicas;
  for (int i = 0; i < 3; i++) {
    replicas.emplace_back(
        [&, i] { RunRawRdmaKvReplica(net, replica_macs[i], clock, stop); });
  }
  ::usleep(20'000);
  RawRdmaYcsbOptions opts;
  opts.replicas = {replica_macs[0], replica_macs[1], replica_macs[2]};
  opts.num_keys = 100;
  opts.transactions = 200;
  auto result = RunRawRdmaYcsbFClient(net, MacAddr{0x79}, clock, opts);
  stop = true;
  for (auto& t : replicas) {
    t.join();
  }
  EXPECT_EQ(result.committed, 200u);
}

TEST(UdpRelayTest, CatnipRelayForwards) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 9);
  std::atomic<bool> stop{false};
  RelayStats rstats;
  const SocketAddress relay_addr{kServerIp, 9300};
  const SocketAddress sink_addr{kClientIp, 9301};

  std::thread relay_thread([&] {
    Catnip relay(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    RunUdpRelay(relay, RelayOptions{relay_addr, sink_addr}, stop, &rstats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  RelayLoadOptions lopts;
  lopts.relay = relay_addr;
  lopts.sink_bind = sink_addr;
  lopts.packets = 500;
  lopts.warmup = 50;
  auto result = RunRelayLoadGenerator(client, lopts);
  stop = true;
  relay_thread.join();
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.latency.count(), 500u);
  EXPECT_GE(rstats.forwarded, 550u);
}

TEST(UdpRelayTest, PosixRelayVariants) {
  for (int variant = 0; variant < 2; variant++) {
    std::atomic<bool> stop{false};
    const uint16_t relay_port = NextPort();
    const uint16_t sink_port = NextPort();
    const SocketAddress relay_addr{Ipv4Addr::FromOctets(127, 0, 0, 1), relay_port};
    const SocketAddress sink_addr{Ipv4Addr::FromOctets(127, 0, 0, 1), sink_port};
    std::thread relay_thread([&] {
      if (variant == 0) {
        RunPosixUdpRelay(RelayOptions{relay_addr, sink_addr}, stop);
      } else {
        RunBatchedPosixUdpRelay(RelayOptions{relay_addr, sink_addr}, stop);
      }
    });
    ::usleep(20'000);
    RelayLoadOptions lopts;
    lopts.relay = relay_addr;
    lopts.sink_bind = sink_addr;
    lopts.packets = 200;
    lopts.warmup = 20;
    auto result = RunPosixRelayLoadGenerator(lopts);
    stop = true;
    relay_thread.join();
    EXPECT_EQ(result.latency.count(), 200u) << "variant " << variant;
    EXPECT_LT(result.lost, 5u) << "variant " << variant;
  }
}

TEST(MiniRpcTest, CallAndWindowedLoad) {
  // Single-thread duet: the client pumps the server between polls (1-CPU hosts cannot measure
  // µs latencies across two busy-polling threads).
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 10);
  MiniRpcServer server(net, kServerMac, clock,
                       [](std::span<const uint8_t> req, std::span<uint8_t> resp) {
                         std::memcpy(resp.data(), req.data(), req.size());
                         return req.size();
                       });
  MiniRpcClient client(net, kClientMac, kServerMac, clock);
  client.SetPump([&] { server.PollOnce(); });

  std::vector<uint8_t> req = {1, 2, 3, 4};
  auto resp = client.Call(req);
  EXPECT_EQ(resp, req);

  Histogram lat;
  const uint64_t done = client.RunClosedLoopWindow(64, 1, 50 * kMillisecond, &lat);
  EXPECT_GT(done, 500u);
  EXPECT_GT(lat.Mean(), 0.0);
  // >= because Call() may have retransmitted under load (served twice, completed once).
  EXPECT_GE(server.requests_served(), done + 1);
}

}  // namespace
}  // namespace demi
