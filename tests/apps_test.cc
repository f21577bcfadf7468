// Integration tests for the µs-scale applications (echo, MiniKv, TxnStore/YCSB, UDP relay,
// MiniRpc), running client and server on separate threads like the benchmarks do.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/echo.h"
#include "src/apps/load_driver.h"
#include "src/apps/minikv.h"
#include "src/apps/minirpc.h"
#include "src/apps/txnstore.h"
#include "src/apps/udp_relay.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catmint.h"
#include "src/liboses/catnap.h"
#include "src/liboses/catnip.h"
#include "src/memory/pool_allocator.h"
#include "src/storage/log_device.h"
#include "tests/log_driver.h"

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
  PdpixTransport link(client, SocketType::kStream, {{kServerIp, 9000}});
  EchoCodec echo(64);
  auto result = RunLoad(link, echo, {.operations = 500, .warmup = 50});
  stop = true;
  server_thread.join();

  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency.count(), 500u);
  EXPECT_GT(result.latency.Mean(), 0.0);
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
  PdpixTransport link(client, SocketType::kDatagram, {{kServerIp, 9001}});
  EchoCodec echo(64);
  auto result = RunLoad(link, echo, {.operations = 500, .warmup = 50});
  stop = true;
  server_thread.join();
  if (result.errors != 0) {
    std::fputs(client.metrics().ExportText().c_str(), stderr);
  }
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency.count(), 500u);
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
  PdpixTransport link(client, SocketType::kStream, {{kServerIp, 9002}});
  EchoCodec echo(64);
  auto result = RunLoad(link, echo, {.operations = 500, .warmup = 50});
  stop = true;
  server_thread.join();
  if (result.errors != 0) {
    std::fputs(client.metrics().ExportText().c_str(), stderr);
  }
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency.count(), 500u);
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
  PdpixTransport link(client, SocketType::kStream, {addr});
  EchoCodec echo(64);
  auto result = RunLoad(link, echo, {.operations = 200, .warmup = 20});
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency.count(), 200u);
}

TEST(EchoAppTest, PosixEchoBaseline) {
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  std::thread server_thread(
      [&] { RunPosixEchoServer(EchoServerOptions{addr, SocketType::kStream}, stop, nullptr); });
  ::usleep(20'000);
  PosixTransport link(SocketType::kStream, {addr});
  EchoCodec echo(64);
  auto result = RunLoad(link, echo, {.operations = 200, .warmup = 20});
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency.count(), 200u);
}

// A Catnip×Cattree server and a Catnip client on one VirtualClock, stepped from one thread. The
// link has no bandwidth limit, so a frame arrives exactly kLinkLatency after it left: a client
// that receives at t knows the server sent at t - kLinkLatency.
struct SteppedWorld {
  static constexpr DurationNs kLinkLatency = LinkConfig{}.latency;

  explicit SteppedWorld(uint64_t seed)
      : net(Link(), seed),
        disk(SimBlockDevice::Config{}, clock),
        server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, &disk}, clock),
        client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock) {
    server.ethernet().arp().Insert(kClientIp, kClientMac);
    client.ethernet().arp().Insert(kServerIp, kServerMac);
    // A server app that waited inside Pump would poll only the server; this keeps time moving
    // under such an app, so it fails these tests rather than hanging them.
    server.SetExternalPump([this] { AdvanceClock(); });
  }

  static LinkConfig Link() {
    LinkConfig link;
    link.bandwidth_bps = 0;
    return link;
  }

  // Moves virtual time to the earliest pending event: a frame, a timer or a disk completion.
  void AdvanceClock() {
    TimeNs next = 0;
    for (const TimeNs t : {net.NextDeliveryTime(), server.scheduler().NextTimerDeadline(),
                           client.scheduler().NextTimerDeadline(), disk.NextCompletionTime()}) {
      if (t != 0 && (next == 0 || t < next)) {
        next = t;
      }
    }
    if (next > clock.Now()) {
      clock.SetTime(next);
    } else {
      clock.Advance(kMicrosecond);
    }
  }

  // One round: the server polls and `pump` serves, the client polls, then time moves on.
  template <typename Pump>
  void Step(Pump&& pump) {
    server.PollOnce();
    pump();
    client.PollOnce();
    AdvanceClock();
  }

  template <typename Pump>
  QueueDesc Connect(uint16_t port, Pump&& pump) {
    auto qd = client.Socket(SocketType::kStream);
    EXPECT_TRUE(qd.ok());
    auto qt = client.Connect(*qd, {kServerIp, port});
    EXPECT_TRUE(qt.ok());
    for (int i = 0; i < 10000 && !client.IsDone(*qt); i++) {
      Step(pump);
    }
    EXPECT_EQ(client.TryTake(*qt)->status, Status::kOk);
    return *qd;
  }

  // Pushes `bytes` on client queue `qd`; a TCP push completes at once.
  void Send(QueueDesc qd, const std::string& bytes) {
    void* buf = client.DmaMalloc(bytes.size());
    std::memcpy(buf, bytes.data(), bytes.size());
    auto push = client.Push(qd, Sgarray::Of(buf, static_cast<uint32_t>(bytes.size())));
    client.DmaFree(buf);
    ASSERT_TRUE(push.ok());
    ASSERT_EQ(client.TryTake(*push)->status, Status::kOk);
  }

  VirtualClock clock;
  SimNetwork net;
  SimBlockDevice disk;
  Catnip server;
  Catnip client;
};

// A MiniKv client connection on a SteppedWorld: records each reply's status and arrival time.
struct KvConn {
  struct Reply {
    KvStatus status;
    TimeNs at;
  };

  KvConn(SteppedWorld& world, QueueDesc conn_qd) : w(world), qd(conn_qd) {
    auto p = w.client.Pop(qd);
    EXPECT_TRUE(p.ok());
    pop = *p;
  }

  // Sends a SET and returns its request frame, the record the server appends to its AOF.
  std::string Set(const std::string& key, const std::string& value) {
    std::string req(4 + 7 + key.size() + value.size(), '\0');
    KvEncodeRequest(KvOp::kSet, key, value, reinterpret_cast<uint8_t*>(req.data()), req.size());
    w.Send(qd, req);
    return req.substr(4);
  }

  void Get(const std::string& key) {
    std::string req(4 + 7 + key.size(), '\0');
    KvEncodeRequest(KvOp::kGet, key, "", reinterpret_cast<uint8_t*>(req.data()), req.size());
    w.Send(qd, req);
  }

  void Harvest() {
    if (!w.client.IsDone(pop)) {
      return;
    }
    auto r = w.client.TryTake(pop);
    ASSERT_EQ(r->status, Status::kOk);
    for (uint32_t i = 0; i < r->sga.num_segs; i++) {
      const auto* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
      rx.insert(rx.end(), p, p + r->sga.segs[i].len);
    }
    w.client.FreeSga(r->sga);
    pop = *w.client.Pop(qd);
    size_t off = 0;
    while (rx.size() - off >= 4) {
      uint32_t len = 0;
      std::memcpy(&len, rx.data() + off, 4);
      if (rx.size() - off - 4 < len) {
        break;
      }
      KvResponseView resp;
      EXPECT_TRUE(KvParseResponse({rx.data() + off + 4, len}, &resp));
      replies.push_back({resp.status, w.clock.Now()});
      off += 4 + len;
    }
    rx.erase(rx.begin(), rx.begin() + static_cast<long>(off));
  }

  SteppedWorld& w;
  QueueDesc qd;
  QToken pop = kInvalidQToken;
  std::vector<uint8_t> rx;
  std::vector<Reply> replies;
};

// The AOF records on `disk`'s media, as the whole-device log lays them out.
std::vector<std::string> AofRecords(const SimBlockDevice& disk) {
  std::vector<LogDevice::RecordInfo> infos;
  LogDevice::ScanPartition(disk, LogPartition{}, &infos);
  std::vector<std::string> out;
  for (const LogDevice::RecordInfo& info : infos) {
    std::string payload(info.len, '\0');
    disk.RawRead(info.offset + LogDevice::kHeaderSize,
                 {reinterpret_cast<uint8_t*>(payload.data()), payload.size()});
    out.push_back(std::move(payload));
  }
  return out;
}

// The Figure 7 server logs each message before echoing it, without waiting inside Pump: Pump
// returns before the log write completes, and the echo leaves only once it has.
TEST(EchoAppTest, LoggingPumpReturnsBeforeTheWriteCompletes) {
  SteppedWorld w(21);
  EchoServerOptions opts{{kServerIp, 9004}, SocketType::kStream};
  opts.log_to_disk = true;
  EchoServerApp app(w.server, opts);
  const auto pump = [&] { (void)app.Pump(); };
  const QueueDesc qd = w.Connect(9004, pump);
  auto pop = w.client.Pop(qd);
  ASSERT_TRUE(pop.ok());
  const std::string msg(64, 'e');
  w.Send(qd, msg);
  TimeNs durable_at = 0;
  for (int i = 0; i < 10000 && durable_at == 0; i++) {
    w.server.PollOnce();
    if (app.Pump() > 0) {
      durable_at = w.disk.NextCompletionTime();
      ASSERT_NE(durable_at, 0) << "the log write is not on the device";
      EXPECT_LT(w.clock.Now(), durable_at) << "Pump waited for the log write";
    }
    w.client.PollOnce();
    w.AdvanceClock();
  }
  ASSERT_NE(durable_at, 0) << "the server never served the message";
  for (int i = 0; i < 10000 && !w.client.IsDone(*pop); i++) {
    w.Step(pump);
  }
  ASSERT_TRUE(w.client.IsDone(*pop));
  EXPECT_GE(w.clock.Now() - SteppedWorld::kLinkLatency, durable_at)
      << "the echo left before the message was durable";
  auto r = w.client.TryTake(*pop);
  ASSERT_EQ(r->sga.num_segs, 1u);
  EXPECT_EQ(std::string(static_cast<const char*>(r->sga.segs[0].buf), r->sga.segs[0].len), msg);
  w.client.FreeSga(r->sga);
  EXPECT_EQ(app.stats().log_failures, 0u);
  EXPECT_EQ(AofRecords(w.disk), std::vector<std::string>{msg});
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
  PdpixTransport link(client, SocketType::kStream, {{kServerIp, 9003}});
  EchoCodec echo(64);
  auto result = RunLoad(link, echo, {.operations = 200, .warmup = 20});
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
  {
    PdpixTransport link(client, SocketType::kStream, {{kServerIp, 9100}});
    // SET workload.
    KvCodec sets({.num_keys = 100, .value_size = 64, .do_sets = true});
    auto set_result = RunLoad(link, sets, {.operations = 1000, .window = 8});
    EXPECT_EQ(set_result.latency.count(), 1000u);
    // GET workload over the same keyspace: everything should hit.
    KvCodec gets({.num_keys = 100, .value_size = 64, .do_sets = false});
    auto get_result = RunLoad(link, gets, {.operations = 1000, .window = 8});
    EXPECT_EQ(get_result.latency.count(), 1000u);
  }
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
  PdpixTransport link(client, SocketType::kStream, {{kServerIp, 9101}});
  KvCodec kv({.num_keys = 50, .value_size = 64, .do_sets = true});
  auto result = RunLoad(link, kv, {.operations = 300, .window = 4});
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.latency.count(), 300u);
  EXPECT_EQ(kv_stats.sets, 300u);
}

// Steps `w` until `done()`, recording for every AOF record the poll time at which it was first
// on the media. The scan runs after every server poll, before time moves on: right after the
// server's pump in each step, and inside any Wait the server app makes.
template <typename Done>
bool RunKv(SteppedWorld& w, MiniKvServerApp& app, std::deque<KvConn>& conns,
           std::map<std::string, TimeNs>* durable_at, Done&& done) {
  const auto scan = [&] {
    if (durable_at != nullptr) {
      for (std::string& rec : AofRecords(w.disk)) {
        durable_at->emplace(std::move(rec), w.clock.Now());
      }
    }
  };
  w.server.SetExternalPump([&] {
    scan();
    w.AdvanceClock();
  });
  for (int i = 0; i < 100000 && !done(); i++) {
    w.server.PollOnce();
    (void)app.Pump();
    scan();
    w.client.PollOnce();
    for (KvConn& c : conns) {
      c.Harvest();
    }
    w.AdvanceClock();
  }
  w.server.SetExternalPump([&w] { w.AdvanceClock(); });
  return done();
}

// SETs pipelined on two connections: the server keeps serving while their AOF pushes are in
// flight, the log writes the pushes queued meanwhile together, and no SET's reply leaves before
// the write that made it durable completed. A crash right after the last ack loses nothing:
// a fresh log recovered from the same media reads back every acknowledged SET's frame.
TEST(MiniKvTest, PipelinedSetsAreAckedOnlyOnceDurable) {
  SteppedWorld w(22);
  MiniKvOptions opts{{kServerIp, 9102}};
  opts.persist = true;
  MiniKvServerApp app(w.server, opts);
  const auto pump = [&] { (void)app.Pump(); };
  std::deque<KvConn> conns;
  conns.emplace_back(w, w.Connect(9102, pump));
  conns.emplace_back(w, w.Connect(9102, pump));
  constexpr size_t kSets = 12;
  std::vector<std::vector<std::string>> frames(2);
  for (size_t i = 0; i < kSets; i++) {
    for (size_t c = 0; c < 2; c++) {
      frames[c].push_back(conns[c].Set("k" + std::to_string(c) + "-" + std::to_string(i),
                                       std::string(40 + 37 * i, static_cast<char>('a' + i))));
    }
  }
  conns[0].Get("k0-0");  // queued behind unfinished SETs: its reply still comes after theirs
  const uint64_t writes_before = w.disk.GetStats().writes;
  std::map<std::string, TimeNs> durable_at;
  ASSERT_TRUE(RunKv(w, app, conns, &durable_at, [&] {
    return conns[0].replies.size() == kSets + 1 && conns[1].replies.size() == kSets;
  }));
  for (size_t c = 0; c < 2; c++) {
    for (size_t i = 0; i < kSets; i++) {
      SCOPED_TRACE("connection " + std::to_string(c) + ", SET " + std::to_string(i));
      const KvConn::Reply& reply = conns[c].replies[i];
      EXPECT_EQ(reply.status, KvStatus::kOk);
      const auto it = durable_at.find(frames[c][i]);
      ASSERT_NE(it, durable_at.end()) << "acknowledged but never on the media";
      EXPECT_GE(reply.at - SteppedWorld::kLinkLatency, it->second)
          << "the reply left before its write completed";
    }
  }
  EXPECT_EQ(conns[0].replies[kSets].status, KvStatus::kOk);
  EXPECT_GE(conns[0].replies[kSets].at, conns[0].replies[kSets - 1].at);
  EXPECT_LT(w.disk.GetStats().writes - writes_before, 2 * kSets) << "no write carried two SETs";

  Scheduler sched(w.clock);
  PoolAllocator alloc;
  LogDevice fresh(w.disk, sched);
  ASSERT_EQ(fresh.Recover(), Status::kOk);
  std::set<std::string> recovered;
  for (uint64_t cursor = 0; cursor < fresh.tail();) {
    LogDevice::Io io;
    fresh.StartRead(io, cursor, alloc);
    ASSERT_TRUE(DriveLogs(w.clock, sched, w.disk, {&fresh}, [&] { return IsDone(io); }));
    ASSERT_EQ(io.status, Status::kOk);
    recovered.emplace(reinterpret_cast<const char*>(io.record.payload.data()),
                      io.record.payload.size());
    cursor = io.record.next_cursor;
  }
  for (const std::vector<std::string>& conn_frames : frames) {
    for (const std::string& frame : conn_frames) {
      EXPECT_TRUE(recovered.contains(frame)) << "an acknowledged SET was lost";
    }
  }
}

// A torn write that exhausts the retry budget fails every SET whose record it carried: each
// gets kError, none kOk. The log carries on afterwards.
TEST(MiniKvTest, TornBatchWriteFailsEverySetInIt) {
  SteppedWorld w(23);
  LogDevice::RetryPolicy policy;
  policy.max_retries = 2;
  w.server.storage()->log().set_retry_policy(policy);
  MiniKvOptions opts{{kServerIp, 9103}};
  opts.persist = true;
  MiniKvServerApp app(w.server, opts);
  const auto pump = [&] { (void)app.Pump(); };
  std::deque<KvConn> conns;
  conns.emplace_back(w, w.Connect(9103, pump));
  KvConn& conn = conns.front();
  const std::string before = conn.Set("before", "durable");
  ASSERT_TRUE(RunKv(w, app, conns, nullptr, [&] { return conn.replies.size() == 1; }));

  FaultPlan plan;
  plan.disk_torn = 1.0;
  FaultInjector faults(plan);
  w.disk.SetFaultInjector(&faults);
  constexpr size_t kTorn = 6;
  for (size_t i = 0; i < kTorn; i++) {
    (void)conn.Set("torn-" + std::to_string(i), std::string(100, 't'));
  }
  ASSERT_TRUE(RunKv(w, app, conns, nullptr, [&] { return conn.replies.size() == 1 + kTorn; }));
  w.disk.SetFaultInjector(nullptr);
  const std::string after = conn.Set("after", "durable");
  ASSERT_TRUE(RunKv(w, app, conns, nullptr, [&] { return conn.replies.size() == 2 + kTorn; }));

  EXPECT_EQ(conn.replies.front().status, KvStatus::kOk);
  for (size_t i = 1; i <= kTorn; i++) {
    EXPECT_EQ(conn.replies[i].status, KvStatus::kError) << "torn SET " << i - 1;
  }
  EXPECT_EQ(conn.replies.back().status, KvStatus::kOk);
  EXPECT_EQ(app.stats().aof_failures, kTorn);
  // Each failed write made 1 + max_retries attempts; fewer writes than SETs means a batch.
  EXPECT_LT(faults.GetStats().disk_torn_writes, kTorn * (1 + policy.max_retries));
  EXPECT_EQ(AofRecords(w.disk), (std::vector<std::string>{before, after}));
}

// perfbench tears a kv-aof server down right after its preload. Tearing down a MiniKv server
// and its Catnip×Cattree libOS while AOF pushes are on the device and their replies deferred
// frees everything once (run under -DDEMI_SANITIZE=address).
TEST(MiniKvTest, TeardownWithAofPushesOnTheDevice) {
  auto w = std::make_unique<SteppedWorld>(24);
  MiniKvOptions opts{{kServerIp, 9104}};
  opts.persist = true;
  auto app = std::make_unique<MiniKvServerApp>(w->server, opts);
  const auto pump = [&] { (void)app->Pump(); };
  std::deque<KvConn> conns;
  conns.emplace_back(*w, w->Connect(9104, pump));
  for (int i = 0; i < 8; i++) {
    (void)conns.front().Set("key-" + std::to_string(i), std::string(300, 'v'));
  }
  conns.front().Get("key-0");
  for (int i = 0; i < 10000 && app->stats().gets == 0; i++) {
    w->server.PollOnce();
    (void)app->Pump();
    if (app->stats().gets == 0) {
      w->client.PollOnce();
      w->AdvanceClock();
    }
  }
  ASSERT_EQ(app->stats().sets, 8u);
  EXPECT_NE(w->disk.NextCompletionTime(), 0) << "no AOF write on the device";
  EXPECT_TRUE(conns.front().replies.empty());
  conns.clear();
  app.reset();
  w.reset();
}

TEST(MiniKvTest, PosixServerAndClient) {
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  MiniKvStats kv_stats;
  std::thread server_thread([&] { RunPosixMiniKvServer(MiniKvOptions{addr}, stop, &kv_stats); });
  ::usleep(20'000);
  LoadResult result;
  {
    PosixTransport link(SocketType::kStream, {addr});
    KvCodec kv({.num_keys = 100, .do_sets = true});
    result = RunLoad(link, kv, {.operations = 500, .window = 8});
  }
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.latency.count(), 500u);
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
  LoadResult result;
  {
    // Closes while the replicas still run, so each answers the close and the pops armed on the
    // quiet connections complete.
    PdpixTransport link(
        client, SocketType::kStream,
        {{replica_ips[0], 9200}, {replica_ips[1], 9200}, {replica_ips[2], 9200}});
    YcsbCodec ycsb({.num_keys = 100, .value_size = 700});
    result = RunLoad(link, ycsb, {.operations = 300});
  }
  stop = true;
  for (auto& t : replicas) {
    t.join();
  }
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency.count(), 300u);
  EXPECT_GT(result.latency.P99(), result.latency.P50() / 2);
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
  RawRdmaTransport link(net, MacAddr{0x79}, clock,
                        {replica_macs[0], replica_macs[1], replica_macs[2]});
  YcsbCodec ycsb({.num_keys = 100});
  auto result = RunLoad(link, ycsb, {.operations = 200});
  stop = true;
  for (auto& t : replicas) {
    t.join();
  }
  EXPECT_EQ(result.latency.count(), 200u);
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
  PdpixTransport link(client, SocketType::kDatagram, {relay_addr}, sink_addr);
  EchoCodec packets(64);
  auto result = RunLoad(link, packets, {.operations = 500, .warmup = 50});
  stop = true;
  relay_thread.join();
  EXPECT_EQ(result.errors, 0u);
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
    LoadResult result;
    {
      PosixTransport link(SocketType::kDatagram, {relay_addr}, sink_addr);
      EchoCodec packets(64);
      result = RunLoad(link, packets, {.operations = 200, .warmup = 20});
    }
    stop = true;
    relay_thread.join();
    EXPECT_EQ(result.latency.count(), 200u) << "variant " << variant;
    EXPECT_LT(result.errors, 5u) << "variant " << variant;
  }
}

// Runs one load over `link`, then destroys the transport and checks that every qtoken the run
// issued was redeemed.
void ExpectNoTokenLeft(const char* what, LibOS& client, std::unique_ptr<Transport> link,
                       RequestCodec& codec, const LoadOptions& options) {
  EXPECT_EQ(RunLoad(*link, codec, options).errors, 0u) << what;
  link.reset();
  EXPECT_EQ(client.tokens().InflightForTenant(kDefaultTenant), 0u) << what;
}

TEST(LoadDriverTest, PdpixRunsLeaveNoTokenInFlight) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 11);
  Catnip server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  server.ethernet().arp().Insert(kClientIp, kClientMac);
  client.ethernet().arp().Insert(kServerIp, kServerMac);
  const SocketAddress tcp_echo{kServerIp, 9400};
  const SocketAddress udp_echo{kServerIp, 9401};
  const SocketAddress relay{kServerIp, 9402};
  const SocketAddress sink{kClientIp, 9403};
  const std::vector<SocketAddress> kv = {{kServerIp, 9404}, {kServerIp, 9405}, {kServerIp, 9406}};
  EchoServerApp tcp_app(server, {tcp_echo, SocketType::kStream});
  EchoServerApp udp_app(server, {udp_echo, SocketType::kDatagram});
  UdpRelayApp relay_app(server, {relay, sink});
  std::vector<std::unique_ptr<MiniKvServerApp>> kv_apps;
  for (const SocketAddress& addr : kv) {
    kv_apps.push_back(std::make_unique<MiniKvServerApp>(server, MiniKvOptions{addr}));
  }
  client.SetExternalPump([&] {
    server.PollOnce();
    tcp_app.Pump();
    udp_app.Pump();
    relay_app.Pump();
    for (auto& app : kv_apps) {
      app->Pump();
    }
  });
  auto link = [&](SocketType type, std::vector<SocketAddress> peers,
                  std::optional<SocketAddress> local = std::nullopt) {
    return std::make_unique<PdpixTransport>(client, type, std::move(peers), local);
  };

  EchoCodec echo(64);
  ExpectNoTokenLeft("tcp echo", client, link(SocketType::kStream, {tcp_echo}), echo,
                    {.operations = 500, .warmup = 50});
  ExpectNoTokenLeft("udp echo", client, link(SocketType::kDatagram, {udp_echo}), echo,
                    {.operations = 500, .warmup = 50});
  ExpectNoTokenLeft("windowed echo", client, link(SocketType::kStream, {tcp_echo}), echo,
                    {.operations = 2000, .window = 16});
  KvCodec sets({.num_keys = 100});
  ExpectNoTokenLeft("kv", client, link(SocketType::kStream, {kv[0]}), sets,
                    {.operations = 2000, .window = 16});
  YcsbCodec ycsb({.num_keys = 100});
  ExpectNoTokenLeft("ycsb", client, link(SocketType::kStream, kv), ycsb, {.operations = 200});
  ExpectNoTokenLeft("relay", client, link(SocketType::kDatagram, {relay}, sink), echo,
                    {.operations = 500, .warmup = 50});
  client.SetExternalPump(nullptr);
}

// Answers like MiniKv replicas, at once and in send order: every GET with kOk, and replica i's
// SETs with set_status[i].
class ScriptedReplicas final : public Transport {
 public:
  explicit ScriptedReplicas(std::vector<KvStatus> set_status)
      : Transport(SocketType::kStream), set_status_(std::move(set_status)) {}
  size_t peers() const override { return set_status_.size(); }
  Clock& clock() override { return clock_; }
  bool Send(size_t peer, std::span<const uint8_t> bytes) override {
    KvRequestView req;
    EXPECT_TRUE(KvParseRequest(bytes.subspan(4), &req));
    uint8_t frame[16];
    const size_t n = KvEncodeResponse(req.op == KvOp::kSet ? set_status_[peer] : KvStatus::kOk,
                                      "", frame, sizeof(frame));
    replies_.emplace_back(peer, std::vector<uint8_t>(frame, frame + n));
    return true;
  }
  std::optional<size_t> Receive(DurationNs, Inbox& inbox) override {
    if (replies_.empty()) {
      return std::nullopt;
    }
    auto [peer, frame] = replies_.front();
    replies_.pop_front();
    inbox[peer].insert(inbox[peer].end(), frame.begin(), frame.end());
    return peer;
  }

 private:
  std::vector<KvStatus> set_status_;
  MonotonicClock clock_;
  std::deque<std::pair<size_t, std::vector<uint8_t>>> replies_;
};

// A transaction commits once write_quorum replicas answered its SET with kOk. An error reply
// (MiniKv's failed AOF append) is not an ack, and the reply after the quorum is consumed
// before the next transaction reads that connection.
TEST(LoadDriverTest, YcsbCommitsOnAWriteQuorumOfOkReplies) {
  {
    ScriptedReplicas replicas({KvStatus::kOk, KvStatus::kOk, KvStatus::kError});
    YcsbCodec ycsb({.write_quorum = 2, .num_keys = 10});
    const LoadResult r = RunLoad(replicas, ycsb, {.operations = 100});
    EXPECT_EQ(r.latency.count(), 100u);
    EXPECT_EQ(r.errors, 0u);
  }
  {
    ScriptedReplicas replicas({KvStatus::kOk, KvStatus::kError, KvStatus::kError});
    YcsbCodec ycsb({.write_quorum = 2, .num_keys = 10});
    const LoadResult r = RunLoad(replicas, ycsb, {.operations = 100});
    EXPECT_EQ(r.latency.count(), 0u);
    EXPECT_EQ(r.errors, 100u);
  }
}

// A kernel peer that accepts the connection and never answers must not hang the client: the
// POSIX transport waits with poll(), and a silent stream ends the run with every operation
// counted as an error.
TEST(LoadDriverTest, PosixClientGivesUpOnSilentPeer) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), len), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  LoadResult result;
  {
    PosixTransport link(SocketType::kStream,
                        {{Ipv4Addr::FromOctets(127, 0, 0, 1), ntohs(sa.sin_port)}});
    const int silent = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(silent, 0);
    EchoCodec echo(64);
    result = RunLoad(link, echo, {.operations = 10, .warmup = 2});
    ::close(silent);
  }
  ::close(listener);
  EXPECT_EQ(result.latency.count(), 0u);
  EXPECT_EQ(result.errors, 12u);
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
