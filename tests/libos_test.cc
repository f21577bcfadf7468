// PDPIX-level tests: echo and queue semantics across all library OSes — Catnip (simulated
// DPDK), Catmint (simulated RDMA), Catnap (real POSIX loopback), Cattree (simulated SPDK) and
// the integrated network×storage variants.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catmint.h"
#include "src/liboses/catnap.h"
#include "src/liboses/catnip.h"
#include "src/liboses/cattree.h"

namespace demi {
namespace {

// Steps every libOS in `world` until `self`'s token completes (single-threaded cooperative
// multi-instance testing; benchmarks run instances on separate threads instead).
QResult WaitStepped(LibOS& self, QToken qt, std::vector<LibOS*> world,
                    int max_steps = 2'000'000) {
  for (int i = 0; i < max_steps; i++) {
    for (LibOS* os : world) {
      os->PollOnce();
    }
    if (self.IsDone(qt)) {
      auto r = self.TryTake(qt);
      EXPECT_TRUE(r.ok());
      return r.ok() ? *r : QResult{};
    }
  }
  ADD_FAILURE() << "token did not complete";
  return QResult{};
}

Sgarray MakeSga(LibOS& os, const std::string& data) {
  void* buf = os.DmaMalloc(data.size());
  std::memcpy(buf, data.data(), data.size());
  return Sgarray::Of(buf, static_cast<uint32_t>(data.size()));
}

std::string SgaToString(LibOS& os, Sgarray& sga, bool free_after = true) {
  std::string out;
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    out.append(static_cast<const char*>(sga.segs[i].buf), sga.segs[i].len);
  }
  if (free_after) {
    os.FreeSga(sga);
  }
  return out;
}

uint16_t NextPort() {
  static std::atomic<uint16_t> port{static_cast<uint16_t>(21000 + (getpid() % 500) * 40)};
  return port++;
}

// --- Catnip (simulated DPDK) ---

class CatnipPairTest : public ::testing::Test {
 protected:
  CatnipPairTest()
      : net_(LinkConfig{}, 7),
        server_(net_, Catnip::Config{MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr}, clock_),
        client_(net_, Catnip::Config{MacAddr{2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{}, nullptr}, clock_) {
    server_.ethernet().arp().Insert(client_.local_ip(), MacAddr{2});
    client_.ethernet().arp().Insert(server_.local_ip(), MacAddr{1});
  }

  std::vector<LibOS*> World() { return {&server_, &client_}; }

  // Opens a TCP connection to `port`; returns {server connection qd, client qd}.
  std::pair<QueueDesc, QueueDesc> ConnectTcp(uint16_t port) {
    auto sqd = server_.Socket(SocketType::kStream);
    EXPECT_EQ(server_.Bind(*sqd, {server_.local_ip(), port}), Status::kOk);
    EXPECT_EQ(server_.Listen(*sqd, 4), Status::kOk);
    auto acc = server_.Accept(*sqd);
    auto cqd = client_.Socket(SocketType::kStream);
    auto conn = client_.Connect(*cqd, {server_.local_ip(), port});
    EXPECT_EQ(WaitStepped(client_, *conn, World()).status, Status::kOk);
    return {WaitStepped(server_, *acc, World()).new_qd, *cqd};
  }

  MonotonicClock clock_;
  SimNetwork net_;
  Catnip server_;
  Catnip client_;
};

TEST_F(CatnipPairTest, TcpEchoThroughPdpix) {
  // Server: socket/bind/listen/accept.
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 7000}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto accept_qt = server_.Accept(*sqd);
  ASSERT_TRUE(accept_qt.ok());

  // Client: socket/connect.
  auto cqd = client_.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto connect_qt = client_.Connect(*cqd, {server_.local_ip(), 7000});
  ASSERT_TRUE(connect_qt.ok());

  QResult conn_r = WaitStepped(client_, *connect_qt, World());
  EXPECT_EQ(conn_r.status, Status::kOk);
  QResult acc_r = WaitStepped(server_, *accept_qt, World());
  ASSERT_EQ(acc_r.status, Status::kOk);
  const QueueDesc server_conn = acc_r.new_qd;
  EXPECT_EQ(acc_r.remote.ip, client_.local_ip());

  // Client pushes; server pops; server echoes; client pops.
  auto push_qt = client_.Push(*cqd, MakeSga(client_, "hello pdpix"));
  ASSERT_TRUE(push_qt.ok());
  EXPECT_EQ(WaitStepped(client_, *push_qt, World()).status, Status::kOk);

  auto pop_qt = server_.Pop(server_conn);
  ASSERT_TRUE(pop_qt.ok());
  QResult pop_r = WaitStepped(server_, *pop_qt, World());
  ASSERT_EQ(pop_r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, pop_r.sga, false), "hello pdpix");

  // Echo back the same buffer (zero-copy round): push then free.
  auto echo_qt = server_.Push(server_conn, pop_r.sga);
  ASSERT_TRUE(echo_qt.ok());
  server_.FreeSga(pop_r.sga);  // safe immediately: UAF protection pins it until acked

  auto cpop_qt = client_.Pop(*cqd);
  ASSERT_TRUE(cpop_qt.ok());
  QResult cpop_r = WaitStepped(client_, *cpop_qt, World());
  ASSERT_EQ(cpop_r.status, Status::kOk);
  EXPECT_EQ(SgaToString(client_, cpop_r.sga), "hello pdpix");
}

TEST_F(CatnipPairTest, UdpPushToAndPop) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 5353}), Status::kOk);
  auto pop_qt = server_.Pop(*sqd);
  ASSERT_TRUE(pop_qt.ok());

  auto cqd = client_.Socket(SocketType::kDatagram);
  ASSERT_TRUE(cqd.ok());
  auto push_qt = client_.PushTo(*cqd, MakeSga(client_, "datagram!"), {server_.local_ip(), 5353});
  ASSERT_TRUE(push_qt.ok());
  EXPECT_EQ(WaitStepped(client_, *push_qt, World()).status, Status::kOk);

  QResult r = WaitStepped(server_, *pop_qt, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.remote.ip, client_.local_ip());
  EXPECT_EQ(SgaToString(server_, r.sga), "datagram!");
}

TEST_F(CatnipPairTest, PopCompletesWithEofOnPeerClose) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 7001}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 4), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 7001});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  auto pop_qt = server_.Pop(acc_r.new_qd);
  ASSERT_TRUE(pop_qt.ok());
  ASSERT_EQ(client_.Close(*cqd), Status::kOk);
  QResult r = WaitStepped(server_, *pop_qt, World());
  EXPECT_EQ(r.status, Status::kEndOfFile);
}

// A memory queue's pending pops get the items pushed before Close, then kEndOfFile.
TEST_F(CatnipPairTest, CloseDrainsMemoryQueueThenEof) {
  auto mq = server_.MemoryQueue();
  ASSERT_TRUE(mq.ok());
  auto first = server_.Pop(*mq);
  auto second = server_.Pop(*mq);
  auto push = server_.Push(*mq, MakeSga(server_, "last"));
  ASSERT_TRUE(push.ok());
  ASSERT_EQ(server_.Close(*mq), Status::kOk);
  auto r1 = server_.TryTake(*first);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(SgaToString(server_, r1->sga), "last");
  EXPECT_EQ(server_.TryTake(*second)->status, Status::kEndOfFile);
  EXPECT_TRUE(server_.TryTake(*push).ok());
}

// Polls `os` alone until one poll moves `progress()`, i.e. drains the frame under test.
template <typename Progress>
bool PollUntilProgress(LibOS& os, Progress&& progress) {
  const uint64_t before = progress();
  for (int i = 0; i < 2'000'000; i++) {
    os.PollOnce();
    if (progress() != before) {
      return true;
    }
  }
  return false;
}

// The poll that receives the segment completes the waiting pop: no second poll is needed.
TEST_F(CatnipPairTest, TcpPopCompletesInThePollThatDrainsTheFrame) {
  const auto [sconn, cqd] = ConnectTcp(7003);
  auto pop = server_.Pop(sconn);
  ASSERT_TRUE(pop.ok());
  server_.PollOnce();
  ASSERT_FALSE(server_.IsDone(*pop));
  auto push = client_.Push(cqd, MakeSga(client_, "same poll"));
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(PollUntilProgress(
      server_, [this] { return server_.tcp().AggregateConnStats().bytes_received; }));
  ASSERT_TRUE(server_.IsDone(*pop));
  auto r = server_.TryTake(*pop);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SgaToString(server_, r->sga), "same poll");
}

// An accept armed before the client connects completes in the server poll that drains the
// handshake's final ACK: no second poll is needed.
TEST_F(CatnipPairTest, AcceptCompletesInThePollThatDrainsTheFinalAck) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 7005}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 4), Status::kOk);
  auto acc = server_.Accept(*sqd);
  ASSERT_TRUE(acc.ok());
  server_.PollOnce();
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 7005});
  ASSERT_TRUE(conn.ok());
  // The client's connect completes on the SYN-ACK; its final ACK is then still on the wire.
  EXPECT_EQ(WaitStepped(client_, *conn, World()).status, Status::kOk);
  ASSERT_FALSE(server_.IsDone(*acc));
  ASSERT_TRUE(PollUntilProgress(server_, [this] { return server_.tcp().stats().segments_rx; }));
  ASSERT_TRUE(server_.IsDone(*acc));
  EXPECT_EQ(server_.TryTake(*acc)->status, Status::kOk);
}

TEST_F(CatnipPairTest, UdpPopCompletesInThePollThatDrainsTheFrame) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 5354}), Status::kOk);
  auto pop = server_.Pop(*sqd);
  ASSERT_TRUE(pop.ok());
  server_.PollOnce();
  ASSERT_FALSE(server_.IsDone(*pop));
  auto cqd = client_.Socket(SocketType::kDatagram);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "same poll"), {server_.local_ip(), 5354});
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(PollUntilProgress(server_, [this] { return server_.udp().stats().rx_datagrams; }));
  ASSERT_TRUE(server_.IsDone(*pop));
  auto r = server_.TryTake(*pop);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SgaToString(server_, r->sga), "same poll");
}

// A pop armed on the ephemeral socket still completes after Bind moves the queue to a new
// port: the readable hook is re-armed on the new socket.
TEST_F(CatnipPairTest, PendingUdpPopSurvivesRebind) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  auto pop = server_.Pop(*sqd);
  ASSERT_TRUE(pop.ok());
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 5356}), Status::kOk);
  auto cqd = client_.Socket(SocketType::kDatagram);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "rebound"), {server_.local_ip(), 5356});
  ASSERT_TRUE(push.ok());
  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "rebound");
}

// Pending pops complete oldest first: two datagrams drained in one burst go to the two pops
// in the order they were armed.
TEST_F(CatnipPairTest, PendingUdpPopsCompleteInFifoOrder) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 5355}), Status::kOk);
  auto first = server_.Pop(*sqd);
  auto second = server_.Pop(*sqd);
  server_.PollOnce();
  auto cqd = client_.Socket(SocketType::kDatagram);
  for (const char* msg : {"one", "two"}) {
    ASSERT_TRUE(client_.PushTo(*cqd, MakeSga(client_, msg), {server_.local_ip(), 5355}).ok());
  }
  // Let both frames cross the 1 us link before the server polls, so one burst drains both.
  const TimeNs arrived = clock_.Now() + 50 * kMicrosecond;
  while (clock_.Now() < arrived) {
  }
  const uint64_t frames_before = server_.ethernet().stats().rx_burst_frames;
  server_.PollOnce();
  ASSERT_EQ(server_.ethernet().stats().rx_burst_frames, frames_before + 2);
  auto r1 = server_.TryTake(*first);
  auto r2 = server_.TryTake(*second);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(SgaToString(server_, r1->sga), "one");
  EXPECT_EQ(SgaToString(server_, r2->sga), "two");
}

TEST_F(CatnipPairTest, WaitAnyWakesOnReadyToken) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 6000}), Status::kOk);
  auto sqd2 = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd2, {server_.local_ip(), 6001}), Status::kOk);
  auto pop1 = server_.Pop(*sqd);
  auto pop2 = server_.Pop(*sqd2);

  auto cqd = client_.Socket(SocketType::kDatagram);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "to-6001"), {server_.local_ip(), 6001});
  WaitStepped(client_, *push, World());

  // Drive both sides until one of the two pops completes, then use WaitAny to claim it.
  QToken qts[2] = {*pop1, *pop2};
  for (int i = 0; i < 200000 && !(server_.IsDone(qts[0]) || server_.IsDone(qts[1])); i++) {
    client_.PollOnce();
    server_.PollOnce();
  }
  size_t index = 99;
  auto r = server_.WaitAny(qts, &index, /*timeout=*/kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(SgaToString(server_, r->sga), "to-6001");
}

TEST_F(CatnipPairTest, MemoryQueueRoundTrip) {
  auto mq = server_.MemoryQueue();
  ASSERT_TRUE(mq.ok());
  auto push = server_.Push(*mq, MakeSga(server_, "channel-msg"));
  ASSERT_TRUE(push.ok());
  auto pop = server_.Pop(*mq);
  ASSERT_TRUE(pop.ok());
  auto r = server_.Wait(*pop, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SgaToString(server_, r->sga), "channel-msg");
}

// WaitAny must not starve later entries when earlier ones are continuously ready: the scan
// start rotates across calls. Pre-fix, scanning from index 0 every call meant a hot queue at
// position 0 monopolized a server loop and position 1 was never harvested.
TEST_F(CatnipPairTest, WaitAnyRotatesAcrossHotQueues) {
  auto q0 = server_.MemoryQueue();
  auto q1 = server_.MemoryQueue();
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());
  // Preload both queues so a fresh pop on either completes immediately: both stay "hot".
  for (int i = 0; i < 8; i++) {
    for (QueueDesc qd : {*q0, *q1}) {
      auto push = server_.Push(qd, MakeSga(server_, "hot"));
      ASSERT_TRUE(push.ok());
      (void)server_.Wait(*push, kSecond);
    }
  }
  QToken qts[2];
  auto p0 = server_.Pop(*q0);
  auto p1 = server_.Pop(*q1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  qts[0] = *p0;
  qts[1] = *p1;
  int harvested[2] = {0, 0};
  for (int round = 0; round < 6; round++) {
    // Both tokens must be complete before the call, so the scan order alone decides.
    for (int i = 0; i < 1000 && !(server_.IsDone(qts[0]) && server_.IsDone(qts[1])); i++) {
      server_.PollOnce();
    }
    ASSERT_TRUE(server_.IsDone(qts[0]) && server_.IsDone(qts[1]));
    size_t idx = 99;
    auto r = server_.WaitAny(qts, &idx, kSecond);
    ASSERT_TRUE(r.ok());
    ASSERT_LT(idx, 2u);
    harvested[idx]++;
    server_.FreeSga(r->sga);
    auto next = server_.Pop(idx == 0 ? *q0 : *q1);
    ASSERT_TRUE(next.ok());
    qts[idx] = *next;
  }
  EXPECT_GT(harvested[0], 0);
  EXPECT_GT(harvested[1], 0) << "queue at index 1 was starved by the scan order";
}

TEST_F(CatnipPairTest, WaitAnyHarvestDrainsBurst) {
  // The paper's wait_any returns an array of qevents; a burst of completions should harvest in
  // one call.
  auto mq = server_.MemoryQueue();
  ASSERT_TRUE(mq.ok());
  std::vector<QToken> pops;
  for (int i = 0; i < 4; i++) {
    auto pop = server_.Pop(*mq);
    ASSERT_TRUE(pop.ok());
    pops.push_back(*pop);
  }
  for (int i = 0; i < 4; i++) {
    auto push = server_.Push(*mq, MakeSga(server_, "burst-" + std::to_string(i)));
    ASSERT_TRUE(push.ok());
    (void)server_.Wait(*push, kSecond);
  }
  std::vector<QResult> events;
  std::vector<size_t> indices;
  const size_t n = server_.WaitAnyHarvest(pops, &events, &indices, kSecond);
  EXPECT_EQ(n, 4u);
  ASSERT_EQ(events.size(), 4u);
  std::vector<std::string> got;
  for (auto& e : events) {
    got.push_back(SgaToString(server_, e.sga));
  }
  std::sort(got.begin(), got.end());
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(got[i], "burst-" + std::to_string(i));
  }
  // All tokens consumed: a second harvest times out.
  std::vector<QResult> empty;
  EXPECT_EQ(server_.WaitAnyHarvest(pops, &empty, nullptr, 2 * kMillisecond), 0u);
}

uint64_t WaitNsCount(const LibOS& os) {
  for (const auto& s : os.metrics().Snapshot()) {
    if (s.name == "core.wait_ns") {
      return s.count;
    }
  }
  return 0;
}

// A token that completes in the poll round that crosses the deadline comes back through the
// normal completion path: WaitAny and WaitAnyHarvest both return it and record its latency in
// core.wait_ns.
TEST(CatnipWaitTest, WaitAnyReturnsTokenCompletedAsDeadlinePasses) {
  for (const bool harvest : {false, true}) {
    SCOPED_TRACE(harvest ? "WaitAnyHarvest" : "WaitAny");
    VirtualClock clock;
    SimNetwork net(LinkConfig{}, 7);
    Catnip::Config cfg{MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr};
    Catnip os(net, cfg, clock);
    auto mq = os.MemoryQueue();
    ASSERT_TRUE(mq.ok());
    auto pop = os.Pop(*mq);
    ASSERT_TRUE(pop.ok());
    // The pump pushes in the first round; the pop completes on a later scheduler poll, and the
    // pump round right after that poll steps the clock past the deadline.
    QToken push = kInvalidQToken;
    bool crossed = false;
    os.SetExternalPump([&] {
      if (push == kInvalidQToken) {
        auto qt = os.Push(*mq, MakeSga(os, "late"));
        ASSERT_TRUE(qt.ok());
        push = *qt;
      } else if (!crossed && os.IsDone(*pop)) {
        clock.Advance(kSecond);
        crossed = true;
      }
    });
    const uint64_t waits_before = WaitNsCount(os);
    QToken qts[1] = {*pop};
    std::vector<QResult> events;
    std::vector<size_t> indices;
    if (harvest) {
      ASSERT_EQ(os.WaitAnyHarvest(qts, &events, &indices, kMillisecond), 1u);
    } else {
      size_t index = 99;
      auto r = os.WaitAny(qts, &index, kMillisecond);
      ASSERT_TRUE(r.ok());
      events.push_back(*r);
      indices.push_back(index);
    }
    EXPECT_TRUE(crossed);
    EXPECT_EQ(indices[0], 0u);
    EXPECT_EQ(SgaToString(os, events[0].sga), "late");
    EXPECT_EQ(WaitNsCount(os), waits_before + 1);
    os.SetExternalPump(nullptr);
    EXPECT_TRUE(os.Wait(push).ok());
  }
}

// A manual clock that counts its reads.
class CountingClock final : public Clock {
 public:
  TimeNs Now() const override {
    reads_++;
    return clock_.Now();
  }
  bool IsManual() const override { return true; }
  void AdvanceTo(TimeNs t) override { clock_.AdvanceTo(t); }
  void Advance(DurationNs d) { clock_.Advance(d); }
  uint64_t reads() const { return reads_; }

 private:
  VirtualClock clock_;
  mutable uint64_t reads_ = 0;
};

// A poll reads the clock once and every layer it runs (the NIC burst, the TCP stack, the
// pop it completes) runs on that time. A push reads it once for the libOS and once for the
// NIC's departure stamp on the simulated wire.
TEST(CatnipClockTest, PollReadsTheClockOnce) {
  CountingClock clock;
  SimNetwork net(LinkConfig{}, 7);
  Catnip server(net, {MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr},
                clock);
  Catnip client(net, {MacAddr{2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{}, nullptr},
                clock);
  server.ethernet().arp().Insert(client.local_ip(), MacAddr{2});
  client.ethernet().arp().Insert(server.local_ip(), MacAddr{1});
  auto step_until = [&](QToken qt, LibOS& os) {
    for (int i = 0; i < 10'000 && !os.IsDone(qt); i++) {
      server.PollOnce();
      client.PollOnce();
      clock.Advance(100);
    }
    auto r = os.TryTake(qt);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : QResult{};
  };
  auto lqd = server.Socket(SocketType::kStream);
  ASSERT_EQ(server.Bind(*lqd, {server.local_ip(), 7100}), Status::kOk);
  ASSERT_EQ(server.Listen(*lqd, 4), Status::kOk);
  auto acc = server.Accept(*lqd);
  auto cqd = client.Socket(SocketType::kStream);
  auto conn = client.Connect(*cqd, {server.local_ip(), 7100});
  ASSERT_EQ(step_until(*conn, client).status, Status::kOk);
  const QueueDesc sqd = step_until(*acc, server).new_qd;
  auto pop = server.Pop(sqd);
  ASSERT_TRUE(pop.ok());
  clock.Advance(10 * kMicrosecond);  // let the handshake's last frames land
  server.PollOnce();
  client.PollOnce();
  ASSERT_FALSE(server.IsDone(*pop));

  uint64_t before = clock.reads();
  server.PollOnce();
  EXPECT_EQ(clock.reads() - before, 1u) << "idle poll";

  before = clock.reads();
  auto push = client.Push(*cqd, MakeSga(client, std::string(64, 'x')));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(clock.reads() - before, 2u) << "64 B push";

  clock.Advance(10 * kMicrosecond);  // the segment is due at the server
  before = clock.reads();
  server.PollOnce();
  EXPECT_EQ(clock.reads() - before, 1u) << "poll that receives a segment and completes a pop";
  ASSERT_TRUE(server.IsDone(*pop));
  auto r = server.TryTake(*pop);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SgaToString(server, r->sga), std::string(64, 'x'));
}

// A poll fires its due timers before it runs the fast path, so an op that a timer completes is
// done in that same poll: a connect nobody answers completes with kTimedOut in the PollOnce
// whose clock reaches its last SYN retry's deadline, not one poll later.
TEST(CatnipClockTest, ConnectTimesOutInThePollThatFiresItsLastRetry) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, 7);
  Catnip os(net, {MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr}, clock);
  const Ipv4Addr nobody = Ipv4Addr::FromOctets(10, 0, 0, 9);
  os.ethernet().arp().Insert(nobody, MacAddr{9});
  auto cqd = os.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto conn = os.Connect(*cqd, {nobody, 7200});
  ASSERT_TRUE(conn.ok());
  // The first SYN waits one RTO and each of the kTcpMaxSynRetries retransmissions twice as
  // long as the one before; the timer after the last retransmission ends the connect.
  const TimeNs last_deadline = TcpConfig{}.initial_rto * ((TimeNs{2} << kTcpMaxSynRetries) - 1);
  int polls = 0;
  while (!os.IsDone(*conn)) {
    const TimeNs next = os.scheduler().timer_wheel().NextDeadline();
    ASSERT_NE(next, 0u) << "no timer is left, yet the connect is still pending";
    ASSERT_LE(next, last_deadline);
    clock.AdvanceTo(next);
    os.PollOnce();
    polls++;
  }
  EXPECT_EQ(clock.Now(), last_deadline);
  EXPECT_EQ(polls, kTcpMaxSynRetries + 1);
  auto r = os.TryTake(*conn);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, Status::kTimedOut);
}

uint64_t MetricValue(const LibOS& os, std::string_view name) {
  for (const auto& s : os.metrics().Snapshot()) {
    if (s.name == name) {
      return static_cast<uint64_t>(s.value);
    }
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

// The timer ledger of a TCP echo: each connection keeps one wheel entry armed at or before
// its earliest deadline, and a deadline that moves later is only a store. A seeded 64 B echo
// on the virtual clock, 1 us per poll round, so the counts below are exact: after warm-up,
// 1,000 echoes arm 16 timers and cancel none, where one wheel entry per deadline used to
// cost 4 arms and 4 cancels per echo.
TEST(CatnipTimerLedgerTest, TcpEchoArmsOneTimerPerDelayedAckTimeoutAndCancelsNone) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, 7);
  Catnip server(net, {MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr},
                clock);
  Catnip client(net, {MacAddr{2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{}, nullptr},
                clock);
  server.ethernet().arp().Insert(client.local_ip(), MacAddr{2});
  client.ethernet().arp().Insert(server.local_ip(), MacAddr{1});
  auto step_until = [&](QToken qt, LibOS& os) {
    for (int i = 0; i < 10'000 && !os.IsDone(qt); i++) {
      clock.Advance(kMicrosecond);
      server.PollOnce();
      client.PollOnce();
    }
    auto r = os.TryTake(qt);
    EXPECT_TRUE(r.ok() && r->status == Status::kOk);
    return r.ok() ? *r : QResult{};
  };
  auto lqd = server.Socket(SocketType::kStream);
  ASSERT_EQ(server.Bind(*lqd, {server.local_ip(), 7300}), Status::kOk);
  ASSERT_EQ(server.Listen(*lqd, 4), Status::kOk);
  auto acc = server.Accept(*lqd);
  auto cqd = client.Socket(SocketType::kStream);
  auto conn = client.Connect(*cqd, {server.local_ip(), 7300});
  step_until(*conn, client);
  const QueueDesc sqd = step_until(*acc, server).new_qd;
  const std::string msg(64, 'e');
  auto echo = [&] {
    auto push = client.Push(*cqd, MakeSga(client, msg));
    auto pop = server.Pop(sqd);
    QResult req = step_until(*pop, server);
    (void)client.TryTake(*push);  // an inline push completes in the call
    auto reply = server.Push(sqd, req.sga);
    auto back = client.Pop(*cqd);
    QResult resp = step_until(*back, client);
    (void)server.TryTake(*reply);
    server.FreeSga(req.sga);
    ASSERT_EQ(SgaToString(client, resp.sga), msg);
  };
  for (int i = 0; i < 100; i++) {
    echo();
  }
  auto wheel_ops = [&](std::string_view name) {
    return MetricValue(server, name) + MetricValue(client, name);
  };
  const uint64_t arms0 = wheel_ops("timerwheel.arms");
  const uint64_t fires0 = wheel_ops("timerwheel.fires");
  const uint64_t cancels0 = wheel_ops("timerwheel.cancels");
  const TimeNs t0 = clock.Now();
  for (int i = 0; i < 1000; i++) {
    echo();
  }
  // Four poll rounds per echo: 4 ms of virtual time, eight delayed-ack timeouts, and on each
  // side one fire and one re-arm per timeout. No deadline ever moves earlier.
  EXPECT_EQ(clock.Now() - t0, 4 * kMillisecond);
  EXPECT_EQ(wheel_ops("timerwheel.arms") - arms0, 16u);
  EXPECT_EQ(wheel_ops("timerwheel.fires") - fires0, 16u);
  EXPECT_EQ(wheel_ops("timerwheel.cancels") - cancels0, 0u);
  EXPECT_LE(MetricValue(server, "timerwheel.armed"), 1u);
  EXPECT_LE(MetricValue(client, "timerwheel.armed"), 1u);
}

TEST_F(CatnipPairTest, BadDescriptorsAndTokensRejected) {
  EXPECT_EQ(server_.Push(999, Sgarray{}).error(), Status::kBadQueueDescriptor);
  EXPECT_EQ(server_.Pop(999).error(), Status::kBadQueueDescriptor);
  EXPECT_EQ(server_.Wait(0xDEAD).error(), Status::kBadQToken);
  EXPECT_EQ(server_.Close(999), Status::kBadQueueDescriptor);
}

TEST_F(CatnipPairTest, WaitTimesOut) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 6100}), Status::kOk);
  auto pop = server_.Pop(*sqd);
  auto r = server_.Wait(*pop, 5 * kMillisecond);
  EXPECT_EQ(r.error(), Status::kTimedOut);
}

TEST_F(CatnipPairTest, DmaHeapMallocFree) {
  void* p = server_.DmaMalloc(4096);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(server_.allocator().Owns(p));
  server_.DmaFree(p);
}

// --- Catnip×Cattree (integrated network + storage) ---

TEST(CatnipCattreeTest, FileQueuePushPopSeek) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 3);
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Catnip::Config cfg{MacAddr{9}, Ipv4Addr::FromOctets(10, 0, 0, 9), TcpConfig{}, nullptr};
  cfg.disk = &disk;
  Catnip os(net, cfg, clock);
  ASSERT_TRUE(os.has_storage());

  auto fqd = os.Open("log");
  ASSERT_TRUE(fqd.ok());
  for (const char* msg : {"rec-one", "rec-two", "rec-three"}) {
    auto push = os.Push(*fqd, MakeSga(os, msg));
    ASSERT_TRUE(push.ok());
    auto r = os.Wait(*push, kSecond);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, Status::kOk);
  }
  std::vector<std::string> seen;
  for (int i = 0; i < 3; i++) {
    auto pop = os.Pop(*fqd);
    ASSERT_TRUE(pop.ok());
    auto r = os.Wait(*pop, kSecond);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, Status::kOk);
    seen.push_back(SgaToString(os, r->sga));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"rec-one", "rec-two", "rec-three"}));

  // EOF at tail; seek back to replay.
  auto pop = os.Pop(*fqd);
  auto eof = os.Wait(*pop, kSecond);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(eof->status, Status::kEndOfFile);
  ASSERT_EQ(os.Seek(*fqd, 0), Status::kOk);
  auto again = os.Pop(*fqd);
  auto r2 = os.Wait(*again, kSecond);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(SgaToString(os, r2->sga), "rec-one");
}

TEST(CatnipCattreeTest, NetworkToDiskRunToCompletion) {
  // The paper's marquee flow (§5.5): receive from the network, persist, reply — one libOS,
  // one scheduler, no copies of the application payload on the network side.
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 4);
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Catnip::Config scfg{MacAddr{11}, Ipv4Addr::FromOctets(10, 0, 1, 1), TcpConfig{}, nullptr};
  scfg.disk = &disk;
  Catnip server(net, scfg, clock);
  Catnip client(net, Catnip::Config{MacAddr{12}, Ipv4Addr::FromOctets(10, 0, 1, 2), TcpConfig{}, nullptr}, clock);
  server.ethernet().arp().Insert(client.local_ip(), MacAddr{12});
  client.ethernet().arp().Insert(server.local_ip(), MacAddr{11});
  std::vector<LibOS*> world{&server, &client};

  auto sqd = server.Socket(SocketType::kStream);
  ASSERT_EQ(server.Bind(*sqd, {server.local_ip(), 7100}), Status::kOk);
  ASSERT_EQ(server.Listen(*sqd, 4), Status::kOk);
  auto acc = server.Accept(*sqd);
  auto cqd = client.Socket(SocketType::kStream);
  auto conn = client.Connect(*cqd, {server.local_ip(), 7100});
  WaitStepped(client, *conn, world);
  QResult acc_r = WaitStepped(server, *acc, world);

  auto log_qd = server.Open("wal");
  ASSERT_TRUE(log_qd.ok());

  auto push = client.Push(*cqd, MakeSga(client, "PUT k v"));
  WaitStepped(client, *push, world);
  auto pop = server.Pop(acc_r.new_qd);
  QResult req = WaitStepped(server, *pop, world);
  ASSERT_EQ(req.status, Status::kOk);

  // Persist the request payload, then ack the client.
  auto log_push = server.Push(*log_qd, req.sga);
  ASSERT_TRUE(log_push.ok());
  QResult durable = WaitStepped(server, *log_push, world);
  EXPECT_EQ(durable.status, Status::kOk);
  auto reply = server.Push(acc_r.new_qd, req.sga);
  ASSERT_TRUE(reply.ok());
  server.FreeSga(req.sga);

  auto cpop = client.Pop(*cqd);
  QResult resp = WaitStepped(client, *cpop, world);
  EXPECT_EQ(SgaToString(client, resp.sga), "PUT k v");

  // And the record is really on disk.
  auto rpop = server.Pop(*log_qd);
  QResult rec = WaitStepped(server, *rpop, world);
  EXPECT_EQ(SgaToString(server, rec.sga), "PUT k v");
}

// --- Catmint (simulated RDMA) ---

class CatmintPairTest : public ::testing::Test {
 protected:
  CatmintPairTest()
      : net_(LinkConfig{}, 5),
        server_(net_, Catmint::Config{MacAddr{21}, Ipv4Addr::FromOctets(10, 9, 0, 1)}, clock_),
        client_(net_, Catmint::Config{MacAddr{22}, Ipv4Addr::FromOctets(10, 9, 0, 2)}, clock_) {
    server_.AddPeer(client_.local_ip(), MacAddr{22});
    client_.AddPeer(server_.local_ip(), MacAddr{21});
  }

  std::vector<LibOS*> World() { return {&server_, &client_}; }

  MonotonicClock clock_;
  SimNetwork net_;
  Catmint server_;
  Catmint client_;
};

TEST_F(CatmintPairTest, MessageEchoThroughPdpix) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 800}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  ASSERT_TRUE(acc.ok());

  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 800});
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(WaitStepped(client_, *conn, World()).status, Status::kOk);
  QResult acc_r = WaitStepped(server_, *acc, World());
  ASSERT_EQ(acc_r.status, Status::kOk);

  auto push = client_.Push(*cqd, MakeSga(client_, "rdma says hi"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);

  auto pop = server_.Pop(acc_r.new_qd);
  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga, false), "rdma says hi");

  auto echo = server_.Push(acc_r.new_qd, r.sga);
  server_.FreeSga(r.sga);
  auto cpop = client_.Pop(*cqd);
  QResult er = WaitStepped(client_, *cpop, World());
  EXPECT_EQ(SgaToString(client_, er.sga), "rdma says hi");
  (void)echo;
}

TEST_F(CatmintPairTest, MessageBoundariesPreserved) {
  // RDMA messaging is message-oriented, unlike TCP's byte stream: three pushes = three pops.
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 801}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 801});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  for (const char* m : {"one", "two", "three"}) {
    auto push = client_.Push(*cqd, MakeSga(client_, m));
    WaitStepped(client_, *push, World());
  }
  std::vector<std::string> got;
  for (int i = 0; i < 3; i++) {
    auto pop = server_.Pop(acc_r.new_qd);
    QResult r = WaitStepped(server_, *pop, World());
    ASSERT_EQ(r.status, Status::kOk);
    got.push_back(SgaToString(server_, r.sga));
  }
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(CatmintPairTest, ConnectionRefusedWithoutListener) {
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 4242});
  ASSERT_TRUE(conn.ok());
  QResult r = WaitStepped(client_, *conn, World());
  EXPECT_EQ(r.status, Status::kConnectionRefused);
}

TEST_F(CatmintPairTest, OversizeMessageRejected) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 802}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 802});
  WaitStepped(client_, *conn, World());
  WaitStepped(server_, *acc, World());

  void* big = client_.DmaMalloc(64 * 1024);
  auto push = client_.Push(*cqd, Sgarray::Of(big, 64 * 1024));
  EXPECT_EQ(push.error(), Status::kMessageTooLong);
  client_.DmaFree(big);
}

TEST_F(CatmintPairTest, CreditFlowControlBlocksAndRecovers) {
  // Push far more messages than the credit window without popping; the extras must block,
  // then drain as the receiver pops (credits returned via one-sided writes).
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 803}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 803});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  constexpr int kMessages = 200;  // > send_window_msgs (64)
  std::vector<QToken> pushes;
  for (int i = 0; i < kMessages; i++) {
    std::string m = "m" + std::to_string(i);
    auto push = client_.Push(*cqd, MakeSga(client_, m));
    ASSERT_TRUE(push.ok());
    pushes.push_back(*push);
    client_.PollOnce();
    server_.PollOnce();
  }
  EXPECT_GT(client_.stats().sends_blocked_on_credits, 0u);

  std::vector<std::string> got;
  for (int i = 0; i < kMessages; i++) {
    auto pop = server_.Pop(acc_r.new_qd);
    QResult r = WaitStepped(server_, *pop, World());
    ASSERT_EQ(r.status, Status::kOk);
    got.push_back(SgaToString(server_, r.sga));
  }
  for (int i = 0; i < kMessages; i++) {
    EXPECT_EQ(got[i], "m" + std::to_string(i));
    QResult r = WaitStepped(client_, pushes[i], World());
    EXPECT_EQ(r.status, Status::kOk);
  }
  EXPECT_GT(client_.stats().credit_updates_sent + server_.stats().credit_updates_sent, 0u);
}

TEST_F(CatmintPairTest, PopSeesEofAfterPeerClose) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 804}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 804});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  auto pop = server_.Pop(acc_r.new_qd);
  ASSERT_EQ(client_.Close(*cqd), Status::kOk);
  QResult r = WaitStepped(server_, *pop, World());
  EXPECT_EQ(r.status, Status::kEndOfFile);
}

// --- Catnap (real POSIX loopback) ---

class CatnapPairTest : public ::testing::Test {
 protected:
  CatnapPairTest() : server_(clock_), client_(clock_) {}

  std::vector<LibOS*> World() { return {&server_, &client_}; }
  static SocketAddress Loopback(uint16_t port) {
    return {Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  }

  // Opens a TCP connection over loopback; returns {server connection qd, client qd}.
  std::pair<QueueDesc, QueueDesc> ConnectTcp() {
    const uint16_t port = NextPort();
    auto sqd = server_.Socket(SocketType::kStream);
    EXPECT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
    EXPECT_EQ(server_.Listen(*sqd, 4), Status::kOk);
    auto acc = server_.Accept(*sqd);
    auto cqd = client_.Socket(SocketType::kStream);
    auto conn = client_.Connect(*cqd, Loopback(port));
    EXPECT_EQ(WaitStepped(client_, *conn, World()).status, Status::kOk);
    return {WaitStepped(server_, *acc, World()).new_qd, *cqd};
  }

  // Pushes kBigPush patterned heap bytes, more than the loopback socket buffers hold, so the
  // push short-writes and stays unsent.
  static constexpr size_t kBigPush = 32 << 20;
  QToken PushBig(QueueDesc cqd) {
    auto* big = static_cast<uint8_t*>(client_.DmaMalloc(kBigPush));
    for (size_t i = 0; i < kBigPush; i++) {
      big[i] = static_cast<uint8_t>(i % 251);
    }
    auto push = client_.Push(cqd, Sgarray::Of(big, kBigPush));
    client_.DmaFree(big);  // the unsent push holds its own reference
    EXPECT_TRUE(push.ok());
    EXPECT_FALSE(client_.IsDone(*push));
    return *push;
  }
  static bool IsBigPattern(std::string_view bytes) {
    for (size_t i = 0; i < bytes.size(); i++) {
      if (static_cast<uint8_t>(bytes[i]) != i % 251) {
        return false;
      }
    }
    return bytes.size() == kBigPush;
  }

  // Pops from `qd` until `n` bytes have arrived.
  std::string PopBytes(QueueDesc qd, size_t n) {
    std::string got;
    while (got.size() < n) {
      auto pop = server_.Pop(qd);
      QResult r = WaitStepped(server_, *pop, World());
      if (r.status != Status::kOk) {
        ADD_FAILURE() << "pop failed after " << got.size() << " bytes";
        break;
      }
      got += SgaToString(server_, r.sga);
    }
    return got;
  }

  MonotonicClock clock_;
  Catnap server_;
  Catnap client_;
};

TEST_F(CatnapPairTest, TcpEchoOverLoopback) {
  const uint16_t port = NextPort();
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);

  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, Loopback(port));
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(WaitStepped(client_, *conn, World()).status, Status::kOk);
  QResult acc_r = WaitStepped(server_, *acc, World());
  ASSERT_EQ(acc_r.status, Status::kOk);

  auto push = client_.Push(*cqd, MakeSga(client_, "posix echo"));
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);
  auto pop = server_.Pop(acc_r.new_qd);
  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga, false), "posix echo");

  auto echo = server_.Push(acc_r.new_qd, r.sga);
  WaitStepped(server_, *echo, World());
  server_.FreeSga(r.sga);
  auto cpop = client_.Pop(*cqd);
  QResult er = WaitStepped(client_, *cpop, World());
  EXPECT_EQ(SgaToString(client_, er.sga), "posix echo");
}

TEST_F(CatnapPairTest, UdpEchoOverLoopback) {
  const uint16_t port = NextPort();
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
  auto pop = server_.Pop(*sqd);

  auto cqd = client_.Socket(SocketType::kDatagram);
  ASSERT_EQ(client_.Bind(*cqd, Loopback(0)), Status::kOk);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "udp ping"), Loopback(port));
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);

  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.remote.ip, Ipv4Addr::FromOctets(127, 0, 0, 1));
  ASSERT_NE(r.remote.port, 0);
  EXPECT_EQ(SgaToString(server_, r.sga, false), "udp ping");

  auto reply = server_.PushTo(*sqd, r.sga, r.remote);
  WaitStepped(server_, *reply, World());
  server_.FreeSga(r.sga);
  auto cpop = client_.Pop(*cqd);
  QResult er = WaitStepped(client_, *cpop, World());
  EXPECT_EQ(SgaToString(client_, er.sga), "udp ping");
}

TEST_F(CatnapPairTest, ConnectionRefused) {
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, Loopback(1));  // nothing listens on port 1
  ASSERT_TRUE(conn.ok());
  QResult r = WaitStepped(client_, *conn, World());
  EXPECT_NE(r.status, Status::kOk);
}

TEST_F(CatnapPairTest, FileQueueWithFsync) {
  char path[] = "/tmp/demi_catnap_XXXXXX";
  const int tmp = ::mkstemp(path);
  ASSERT_GE(tmp, 0);
  ::close(tmp);

  auto fqd = server_.Open(path);
  ASSERT_TRUE(fqd.ok());
  auto push = server_.Push(*fqd, MakeSga(server_, "durable"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(WaitStepped(server_, *push, World()).status, Status::kOk);

  auto pop = server_.Pop(*fqd);
  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "durable");
  ::unlink(path);
}

// Pending pops on one queue complete oldest first. A polling fiber per pop got this wrong:
// once two pops had completed together, the next two reused their fiber slots last-in first-out.
TEST_F(CatnapPairTest, PendingPopsCompleteOldestFirst) {
  const uint16_t port = NextPort();
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
  auto cqd = client_.Socket(SocketType::kDatagram);
  ASSERT_EQ(client_.Bind(*cqd, Loopback(0)), Status::kOk);
  for (const std::vector<std::string>& round :
       {std::vector<std::string>{"warm-0", "warm-1"}, std::vector<std::string>{"first", "second"}}) {
    auto pop0 = server_.Pop(*sqd);
    auto pop1 = server_.Pop(*sqd);
    server_.PollOnce();
    ASSERT_FALSE(server_.IsDone(*pop0));
    for (const std::string& m : round) {
      auto push = client_.PushTo(*cqd, MakeSga(client_, m), Loopback(port));
      EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);
    }
    QResult r0 = WaitStepped(server_, *pop0, World());
    QResult r1 = WaitStepped(server_, *pop1, World());
    EXPECT_EQ(SgaToString(server_, r0.sga), round[0]);
    EXPECT_EQ(SgaToString(server_, r1.sga), round[1]);
  }
}

// A push issued while an earlier one is still being written joins it, behind it: the stream
// carries all of the first push, then the second, and the second's qtoken completes last.
TEST_F(CatnapPairTest, PushWaitsBehindAnUnsentPush) {
  const auto [sconn, cqd] = ConnectTcp();
  const QToken big = PushBig(cqd);
  // Read some of it polling only the server, so the client's socket has room for the next push.
  std::string got;
  for (int i = 0; i < 4; i++) {
    auto pop = server_.Pop(sconn);
    QResult r = WaitStepped(server_, *pop, {&server_});
    ASSERT_EQ(r.status, Status::kOk);
    got += SgaToString(server_, r.sga);
  }
  auto small = client_.Push(cqd, MakeSga(client_, std::string(1000, 'b')));
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(client_.IsDone(*small));
  got += PopBytes(sconn, kBigPush + 1000 - got.size());
  ASSERT_EQ(got.size(), kBigPush + 1000);
  EXPECT_TRUE(IsBigPattern(std::string_view(got).substr(0, kBigPush)));
  EXPECT_EQ(got.substr(kBigPush), std::string(1000, 'b'));
  EXPECT_EQ(WaitStepped(client_, big, World()).status, Status::kOk);
  EXPECT_EQ(WaitStepped(client_, *small, World()).status, Status::kOk);
}

// Close completes unsent pushes with kCancelled before it returns.
TEST_F(CatnapPairTest, CloseCancelsUnsentPushes) {
  const QueueDesc cqd = ConnectTcp().second;
  const QToken big = PushBig(cqd);
  auto small = client_.Push(cqd, MakeSga(client_, "queued"));
  ASSERT_TRUE(small.ok());
  ASSERT_EQ(client_.Close(cqd), Status::kOk);
  ASSERT_TRUE(client_.IsDone(big));
  ASSERT_TRUE(client_.IsDone(*small));
  EXPECT_EQ(client_.TryTake(big)->status, Status::kCancelled);
  EXPECT_EQ(client_.TryTake(*small)->status, Status::kCancelled);
}

// An exhausted heap fails a push that must be pinned with kNoMemory instead of aborting; once
// the heap heals, the same push arrives intact behind the unsent one.
TEST_F(CatnapPairTest, PushFailsWithNoMemoryAndRecovers) {
  const auto [sconn, cqd] = ConnectTcp();
  const QToken big = PushBig(cqd);
  FaultInjector faults;
  FaultPlan all_allocs_fail;
  all_allocs_fail.seed = 42;
  all_allocs_fail.alloc_fail = 1.0;
  client_.allocator().SetFaultInjector(&faults);
  faults.Arm(all_allocs_fail);
  // Not heap memory: pinning it copies it, and that allocation fails.
  std::string msg = "hello";
  const Sgarray sga = Sgarray::Of(msg.data(), static_cast<uint32_t>(msg.size()));
  auto push = client_.Push(cqd, sga);
  faults.Disarm();
  client_.allocator().SetFaultInjector(nullptr);
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(client_.IsDone(*push));
  EXPECT_EQ(client_.TryTake(*push)->status, Status::kNoMemory);
  EXPECT_GT(faults.GetStats().alloc_failures, 0u);

  auto retry = client_.Push(cqd, sga);
  ASSERT_TRUE(retry.ok());
  const std::string got = PopBytes(sconn, kBigPush + msg.size());
  ASSERT_EQ(got.size(), kBigPush + msg.size());
  EXPECT_TRUE(IsBigPattern(std::string_view(got).substr(0, kBigPush)));
  EXPECT_EQ(got.substr(kBigPush), msg);
  EXPECT_EQ(WaitStepped(client_, big, World()).status, Status::kOk);
  EXPECT_EQ(WaitStepped(client_, *retry, World()).status, Status::kOk);
}

// --- Close on every network libOS ---

struct NetPair {
  std::unique_ptr<LibOS> server;
  std::unique_ptr<LibOS> client;
  SocketAddress listen;  // where the server listens
};

struct NetLibOs {
  const char* name;
  NetPair (*make)(SimNetwork& net, Clock& clock);
};

void PrintTo(const NetLibOs& os, std::ostream* out) { *out << os.name; }

NetPair MakeCatnipPair(SimNetwork& net, Clock& clock) {
  auto server = std::make_unique<Catnip>(
      net, Catnip::Config{MacAddr{41}, Ipv4Addr::FromOctets(10, 0, 4, 1), TcpConfig{}, nullptr},
      clock);
  auto client = std::make_unique<Catnip>(
      net, Catnip::Config{MacAddr{42}, Ipv4Addr::FromOctets(10, 0, 4, 2), TcpConfig{}, nullptr},
      clock);
  server->ethernet().arp().Insert(client->local_ip(), MacAddr{42});
  client->ethernet().arp().Insert(server->local_ip(), MacAddr{41});
  const SocketAddress listen{server->local_ip(), 7100};
  return {std::move(server), std::move(client), listen};
}

NetPair MakeCatmintPair(SimNetwork& net, Clock& clock) {
  auto server =
      std::make_unique<Catmint>(net, Catmint::Config{MacAddr{43}, Ipv4Addr::FromOctets(10, 0, 4, 3)}, clock);
  auto client =
      std::make_unique<Catmint>(net, Catmint::Config{MacAddr{44}, Ipv4Addr::FromOctets(10, 0, 4, 4)}, clock);
  server->AddPeer(client->local_ip(), MacAddr{44});
  client->AddPeer(server->local_ip(), MacAddr{43});
  const SocketAddress listen{server->local_ip(), 910};
  return {std::move(server), std::move(client), listen};
}

NetPair MakeCatnapPair(SimNetwork&, Clock& clock) {
  return {std::make_unique<Catnap>(clock), std::make_unique<Catnap>(clock),
          {Ipv4Addr::FromOctets(127, 0, 0, 1), NextPort()}};
}

class NetCloseTest : public ::testing::TestWithParam<NetLibOs> {
 protected:
  NetCloseTest() : net_(LinkConfig{}, 11), pair_(GetParam().make(net_, clock_)) {}

  LibOS& server() { return *pair_.server; }
  LibOS& client() { return *pair_.client; }
  std::vector<LibOS*> World() { return {pair_.server.get(), pair_.client.get()}; }

  MonotonicClock clock_;
  SimNetwork net_;
  NetPair pair_;
};

// Close completes a pending accept with kCancelled before it returns, not on a later poll.
TEST_P(NetCloseTest, CloseCancelsPendingAccept) {
  auto sqd = server().Socket(SocketType::kStream);
  ASSERT_EQ(server().Bind(*sqd, pair_.listen), Status::kOk);
  ASSERT_EQ(server().Listen(*sqd, 4), Status::kOk);
  auto acc = server().Accept(*sqd);
  ASSERT_TRUE(acc.ok());
  server().PollOnce();
  ASSERT_FALSE(server().IsDone(*acc));
  ASSERT_EQ(server().Close(*sqd), Status::kOk);
  ASSERT_TRUE(server().IsDone(*acc));
  EXPECT_EQ(server().TryTake(*acc)->status, Status::kCancelled);
}

// Close completes a pending TCP pop, and a UDP one where the libOS has datagrams, with
// kCancelled before it returns: it does not wait for the peer, which is not polled after the
// handshake.
TEST_P(NetCloseTest, CloseCancelsPendingPops) {
  auto sqd = server().Socket(SocketType::kStream);
  ASSERT_EQ(server().Bind(*sqd, pair_.listen), Status::kOk);
  ASSERT_EQ(server().Listen(*sqd, 4), Status::kOk);
  auto acc = server().Accept(*sqd);
  auto cqd = client().Socket(SocketType::kStream);
  auto conn = client().Connect(*cqd, pair_.listen);
  ASSERT_EQ(WaitStepped(client(), *conn, World()).status, Status::kOk);
  ASSERT_EQ(WaitStepped(server(), *acc, World()).status, Status::kOk);
  auto tcp_pop = client().Pop(*cqd);
  ASSERT_TRUE(tcp_pop.ok());
  client().PollOnce();
  ASSERT_FALSE(client().IsDone(*tcp_pop));
  ASSERT_EQ(client().Close(*cqd), Status::kOk);
  ASSERT_TRUE(client().IsDone(*tcp_pop));
  EXPECT_EQ(client().TryTake(*tcp_pop)->status, Status::kCancelled);

  auto uqd = client().Socket(SocketType::kDatagram);
  if (!uqd.ok()) {
    EXPECT_EQ(uqd.error(), Status::kNotSupported);
    return;
  }
  auto udp_pop = client().Pop(*uqd);
  ASSERT_TRUE(udp_pop.ok());
  ASSERT_EQ(client().Close(*uqd), Status::kOk);
  ASSERT_TRUE(client().IsDone(*udp_pop));
  EXPECT_EQ(client().TryTake(*udp_pop)->status, Status::kCancelled);
}

INSTANTIATE_TEST_SUITE_P(AllNetLibOses, NetCloseTest,
                         ::testing::Values(NetLibOs{"Catnip", &MakeCatnipPair},
                                           NetLibOs{"Catmint", &MakeCatmintPair},
                                           NetLibOs{"Catnap", &MakeCatnapPair}),
                         [](const ::testing::TestParamInfo<NetLibOs>& p) {
                           return std::string(p.param.name);
                         });

// The wait lists' lifetimes on every network libOS: a queue and the device event it waits on
// may die in either order (checked under -DDEMI_SANITIZE=address).
using NetWaitTest = NetCloseTest;

// Opens a TCP connection to `listen`; returns {server connection qd, client qd}.
std::pair<QueueDesc, QueueDesc> Connect(LibOS& server, LibOS& client, SocketAddress listen,
                                        std::vector<LibOS*> world) {
  auto lqd = server.Socket(SocketType::kStream);
  EXPECT_EQ(server.Bind(*lqd, listen), Status::kOk);
  EXPECT_EQ(server.Listen(*lqd, 4), Status::kOk);
  auto acc = server.Accept(*lqd);
  auto cqd = client.Socket(SocketType::kStream);
  auto conn = client.Connect(*cqd, listen);
  EXPECT_EQ(WaitStepped(client, *conn, world).status, Status::kOk);
  return {WaitStepped(server, *acc, world).new_qd, *cqd};
}

// A queue closed while its pop waits: the peer's data and FIN then wake the connection's
// waiters, among which the closed queue no longer is, and the libOS keeps serving.
TEST_P(NetWaitTest, EventNotifiedAfterItsQueueClosed) {
  const auto [sqd, cqd] = Connect(server(), client(), pair_.listen, World());
  auto pop = client().Pop(cqd);
  ASSERT_TRUE(pop.ok());
  client().PollOnce();
  ASSERT_EQ(client().Close(cqd), Status::kOk);
  EXPECT_EQ(client().TryTake(*pop)->status, Status::kCancelled);
  auto push = server().Push(sqd, MakeSga(server(), "late"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(WaitStepped(server(), *push, World()).status, Status::kOk);
  ASSERT_EQ(server().Close(sqd), Status::kOk);
  auto fresh = client().Socket(SocketType::kStream);  // the libOS still serves new queues
  ASSERT_TRUE(fresh.ok());
  for (int i = 0; i < 1000; i++) {
    server().PollOnce();
    client().PollOnce();
  }
  EXPECT_EQ(client().Close(*fresh), Status::kOk);
}

// Both libOSes are destroyed, the server first, while pops wait on their connections:
// Catnip's TCP stack wakes its connections' waiters as it dies, after the queues are gone.
TEST_P(NetWaitTest, LibOSesDestroyedWithPopsWaiting) {
  const auto [sqd, cqd] = Connect(server(), client(), pair_.listen, World());
  auto server_pop = server().Pop(sqd);
  auto client_pop = client().Pop(cqd);
  ASSERT_TRUE(server_pop.ok() && client_pop.ok());
  server().PollOnce();
  client().PollOnce();
  ASSERT_FALSE(server().IsDone(*server_pop));
  ASSERT_FALSE(client().IsDone(*client_pop));
  pair_.server.reset();
  client().PollOnce();
  pair_.client.reset();
}

INSTANTIATE_TEST_SUITE_P(AllNetLibOses, NetWaitTest,
                         ::testing::Values(NetLibOs{"Catnip", &MakeCatnipPair},
                                           NetLibOs{"Catmint", &MakeCatmintPair},
                                           NetLibOs{"Catnap", &MakeCatnapPair}),
                         [](const ::testing::TestParamInfo<NetLibOs>& p) {
                           return std::string(p.param.name);
                         });

// --- Cattree (standalone storage libOS) ---

TEST(CattreeTest, LogQueueSemantics) {
  MonotonicClock clock;
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Cattree os(disk, clock);

  EXPECT_EQ(os.Socket(SocketType::kStream).error(), Status::kNotSupported);

  auto qd = os.Open("device-log");
  ASSERT_TRUE(qd.ok());
  std::vector<QToken> pushes;
  for (int i = 0; i < 10; i++) {
    std::string rec = "record-" + std::to_string(i);
    auto push = os.Push(*qd, MakeSga(os, rec));
    ASSERT_TRUE(push.ok());
    pushes.push_back(*push);
  }
  std::vector<QResult> results;
  ASSERT_EQ(os.WaitAll(pushes, &results, kSecond), Status::kOk);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, Status::kOk);
  }

  // A second open replays from the head: two independent cursors.
  auto qd2 = os.Open("device-log");
  for (int i = 0; i < 10; i++) {
    auto pop = os.Pop(*qd2);
    auto r = os.Wait(*pop, kSecond);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, Status::kOk);
    Sgarray sga = r->sga;
    EXPECT_EQ(SgaToString(os, sga), "record-" + std::to_string(i));
  }
}

// A push completes in the poll that drains its write's completion.
TEST(CattreeTest, PushCompletesInThePollThatDrainsItsWrite) {
  VirtualClock clock;
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Cattree os(disk, clock);
  auto qd = os.Open("log");
  ASSERT_TRUE(qd.ok());
  auto push = os.Push(*qd, MakeSga(os, "record"));
  ASSERT_TRUE(push.ok());
  for (int i = 0; i < 4 && disk.NextCompletionTime() == 0; i++) {
    os.PollOnce();  // lets a libOS that submits the write from a later poll do so
  }
  ASSERT_NE(disk.NextCompletionTime(), 0) << "the push never reached the device";
  clock.SetTime(disk.NextCompletionTime());
  os.PollOnce();
  EXPECT_TRUE(os.IsDone(*push));
}

// A queue closed while its push is on the device is gone to PDPIX at once, but stays in the
// libOS, waiting on the push's write, until the push completes durable; then it leaves.
TEST(CattreeTest, ClosedQueueLeavesOnceItsPushOnTheDeviceCompletes) {
  VirtualClock clock;
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Cattree os(disk, clock);
  auto qd = os.Open("log");
  ASSERT_TRUE(qd.ok());
  auto push = os.Push(*qd, MakeSga(os, "record"));
  ASSERT_TRUE(push.ok());
  for (int i = 0; i < 4 && disk.NextCompletionTime() == 0; i++) {
    os.PollOnce();
  }
  ASSERT_NE(disk.NextCompletionTime(), 0) << "the push never reached the device";
  ASSERT_EQ(os.Close(*qd), Status::kOk);
  EXPECT_EQ(os.Close(*qd), Status::kBadQueueDescriptor);
  EXPECT_EQ(os.Pop(*qd).error(), Status::kBadQueueDescriptor);
  EXPECT_FALSE(os.IsDone(*push));
  EXPECT_EQ(os.num_queues(), 1u);
  clock.SetTime(disk.NextCompletionTime());
  os.PollOnce();
  ASSERT_TRUE(os.IsDone(*push));
  EXPECT_EQ(os.TryTake(*push)->status, Status::kOk);
  EXPECT_EQ(os.num_queues(), 0u);
}

TEST(CattreeTest, TruncateGarbageCollects) {
  MonotonicClock clock;
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Cattree os(disk, clock);
  auto qd = os.Open("log");
  auto p1 = os.Push(*qd, MakeSga(os, "old"));
  (void)os.Wait(*p1, kSecond);
  const uint64_t keep_from = os.storage().log().tail();
  auto p2 = os.Push(*qd, MakeSga(os, "new"));
  (void)os.Wait(*p2, kSecond);

  ASSERT_EQ(os.Truncate(*qd, keep_from), Status::kOk);
  auto qd2 = os.Open("log");
  ASSERT_EQ(os.Seek(*qd2, keep_from), Status::kOk);
  auto pop = os.Pop(*qd2);
  auto r = os.Wait(*pop, kSecond);
  ASSERT_TRUE(r.ok());
  Sgarray sga = r->sga;
  EXPECT_EQ(SgaToString(os, sga), "new");
  EXPECT_EQ(os.Seek(*qd2, 0), Status::kInvalidArgument);  // below GC head
}

// --- Storage pops on every libOS that embeds the Cattree engine ---

struct StorageLibOs {
  const char* name;
  std::unique_ptr<LibOS> (*make)(SimNetwork& net, SimBlockDevice& disk, Clock& clock);
};

void PrintTo(const StorageLibOs& os, std::ostream* out) { *out << os.name; }

std::unique_ptr<LibOS> MakeCattree(SimNetwork&, SimBlockDevice& disk, Clock& clock) {
  return std::make_unique<Cattree>(disk, clock);
}

std::unique_ptr<LibOS> MakeCatnipCattree(SimNetwork& net, SimBlockDevice& disk, Clock& clock) {
  Catnip::Config cfg{MacAddr{31}, Ipv4Addr::FromOctets(10, 0, 3, 1), TcpConfig{}, nullptr};
  cfg.disk = &disk;
  return std::make_unique<Catnip>(net, cfg, clock);
}

std::unique_ptr<LibOS> MakeCatmintCattree(SimNetwork& net, SimBlockDevice& disk, Clock& clock) {
  Catmint::Config cfg;
  cfg.mac = MacAddr{32};
  cfg.ip = Ipv4Addr::FromOctets(10, 0, 3, 2);
  cfg.disk = &disk;
  return std::make_unique<Catmint>(net, cfg, clock);
}

class StoragePopTest : public ::testing::TestWithParam<StorageLibOs> {
 protected:
  StoragePopTest()
      : net_(LinkConfig{}, 29),
        disk_(SimBlockDevice::Config{}, clock_),
        os_(GetParam().make(net_, disk_, clock_)) {}

  // Opens a file queue holding `records`, each pushed and durable.
  QueueDesc OpenWith(const std::vector<std::string>& records) {
    auto qd = os_->Open("log");
    EXPECT_TRUE(qd.ok());
    for (const std::string& rec : records) {
      auto push = os_->Push(*qd, MakeSga(*os_, rec));
      EXPECT_TRUE(push.ok());
      EXPECT_EQ(os_->Wait(*push, kSecond)->status, Status::kOk);
    }
    return *qd;
  }

  // Pushes `records` back to back on `qd`, then waits for all of them.
  void PushAll(QueueDesc qd, const std::vector<std::string>& records) {
    std::vector<QToken> pushes;
    for (const std::string& rec : records) {
      auto push = os_->Push(qd, MakeSga(*os_, rec));
      ASSERT_TRUE(push.ok());
      pushes.push_back(*push);
    }
    std::vector<QResult> results;
    ASSERT_EQ(os_->WaitAll(pushes, &results, kSecond), Status::kOk);
    for (const QResult& r : results) {
      EXPECT_EQ(r.status, Status::kOk);
    }
  }

  // Pops `n` records from a fresh queue on the log.
  std::vector<std::string> ReadBack(size_t n) {
    auto qd = os_->Open("log");
    EXPECT_TRUE(qd.ok());
    std::vector<std::string> seen;
    for (size_t i = 0; i < n; i++) {
      auto pop = os_->Pop(*qd);
      auto r = os_->Wait(*pop, kSecond);
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r->status, Status::kOk);
      seen.push_back(SgaToString(*os_, r->sga));
    }
    return seen;
  }

  MonotonicClock clock_;
  SimNetwork net_;
  SimBlockDevice disk_;
  std::unique_ptr<LibOS> os_;
};

// Pushes issued back to back reach the log in push order, one record each.
TEST_P(StoragePopTest, PipelinedPushesLandInPushOrder) {
  auto qd = os_->Open("log");
  ASSERT_TRUE(qd.ok());
  PushAll(*qd, {"x", "y"});
  PushAll(*qd, {"a", "b", "c"});
  EXPECT_EQ(ReadBack(5), (std::vector<std::string>{"x", "y", "a", "b", "c"}));
}

// A pop queued behind an unfinished push on the same queue reads after that push.
TEST_P(StoragePopTest, PopQueuedBehindAPushReadsItsRecord) {
  auto qd = os_->Open("log");
  ASSERT_TRUE(qd.ok());
  auto push = os_->Push(*qd, MakeSga(*os_, "first"));
  auto pop = os_->Pop(*qd);
  ASSERT_TRUE(push.ok() && pop.ok());
  EXPECT_EQ(os_->Wait(*push, kSecond)->status, Status::kOk);
  auto r = os_->Wait(*pop, kSecond);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, Status::kOk);
  EXPECT_EQ(SgaToString(*os_, r->sga), "first");
}

// Close completes the ops that have not started with kCancelled before it returns; the push
// whose write is on the device completes later, durable.
TEST_P(StoragePopTest, CloseCancelsQueuedOpsAndFinishesTheWriteInFlight) {
  auto qd = os_->Open("log");
  ASSERT_TRUE(qd.ok());
  auto on_device = os_->Push(*qd, MakeSga(*os_, "durable"));
  auto queued = os_->Push(*qd, MakeSga(*os_, "cancelled"));
  auto pop = os_->Pop(*qd);
  ASSERT_TRUE(on_device.ok() && queued.ok() && pop.ok());
  ASSERT_EQ(os_->Close(*qd), Status::kOk);
  EXPECT_TRUE(os_->IsDone(*queued));
  EXPECT_TRUE(os_->IsDone(*pop));
  EXPECT_EQ(os_->TryTake(*queued)->status, Status::kCancelled);
  EXPECT_EQ(os_->TryTake(*pop)->status, Status::kCancelled);
  EXPECT_EQ(os_->Wait(*on_device, kSecond)->status, Status::kOk);
  EXPECT_EQ(ReadBack(1), (std::vector<std::string>{"durable"}));
}

// Close while one write carries three pushes (group commit): the three complete later, with
// that write's result, and their records read back; a push still in the log's FIFO behind
// them never started, so Close cancels it (checked under -DDEMI_SANITIZE=address too).
TEST_P(StoragePopTest, CloseWithABatchOnTheDeviceCompletesEveryPushInIt) {
  auto qd = os_->Open("log");
  ASSERT_TRUE(qd.ok());
  auto alone = os_->Push(*qd, MakeSga(*os_, "alone"));
  ASSERT_TRUE(alone.ok());
  std::vector<QToken> batch;
  for (const char* rec : {"batch-0", "batch-1", "batch-2"}) {
    auto push = os_->Push(*qd, MakeSga(*os_, rec));
    ASSERT_TRUE(push.ok());
    batch.push_back(*push);
  }
  // The poll that drains the first write composes the three queued appends into the next.
  ASSERT_EQ(os_->Wait(*alone, kSecond)->status, Status::kOk);
  EXPECT_EQ(disk_.GetStats().writes, 2u);
  auto cancelled = os_->Push(*qd, MakeSga(*os_, "cancelled"));
  ASSERT_TRUE(cancelled.ok());
  ASSERT_EQ(os_->Close(*qd), Status::kOk);
  EXPECT_TRUE(os_->IsDone(*cancelled));
  EXPECT_EQ(os_->TryTake(*cancelled)->status, Status::kCancelled);
  for (const QToken qt : batch) {
    EXPECT_FALSE(os_->IsDone(qt));
  }
  std::vector<QResult> results;
  ASSERT_EQ(os_->WaitAll(batch, &results, kSecond), Status::kOk);
  for (const QResult& r : results) {
    EXPECT_EQ(r.status, Status::kOk);
  }
  EXPECT_EQ(disk_.GetStats().writes, 2u);
  EXPECT_EQ(ReadBack(4), (std::vector<std::string>{"alone", "batch-0", "batch-1", "batch-2"}));
}

// Pops issued back to back read successive records, oldest pop first.
TEST_P(StoragePopTest, PipelinedPopsReadSuccessiveRecords) {
  const QueueDesc qd = OpenWith({"rec-0", "rec-1", "rec-2"});
  std::vector<QToken> pops;
  for (int i = 0; i < 3; i++) {
    auto pop = os_->Pop(qd);
    ASSERT_TRUE(pop.ok());
    pops.push_back(*pop);
  }
  std::vector<QResult> results;
  ASSERT_EQ(os_->WaitAll(pops, &results, kSecond), Status::kOk);
  std::vector<std::string> seen;
  for (QResult& r : results) {
    ASSERT_EQ(r.status, Status::kOk);
    seen.push_back(SgaToString(*os_, r.sga));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"rec-0", "rec-1", "rec-2"}));
}

// Close with a read in flight: the pop still completes, with its record or kCancelled, and
// nothing touches the closed queue's freed state (checked under -DDEMI_SANITIZE=address).
TEST_P(StoragePopTest, CloseWithPopInFlightCompletesThePop) {
  const QueueDesc qd = OpenWith({"rec-0"});
  auto pop = os_->Pop(qd);
  ASSERT_TRUE(pop.ok());
  os_->PollOnce();
  ASSERT_EQ(os_->Close(qd), Status::kOk);
  auto r = os_->Wait(*pop, kSecond);
  ASSERT_TRUE(r.ok());
  if (r->status == Status::kOk) {
    EXPECT_EQ(SgaToString(*os_, r->sga), "rec-0");
  } else {
    EXPECT_EQ(r->status, Status::kCancelled);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, StoragePopTest,
                         ::testing::Values(StorageLibOs{"Cattree", &MakeCattree},
                                           StorageLibOs{"CatnipCattree", &MakeCatnipCattree},
                                           StorageLibOs{"CatmintCattree", &MakeCatmintCattree}),
                         [](const ::testing::TestParamInfo<StorageLibOs>& p) {
                           return std::string(p.param.name);
                         });

}  // namespace
}  // namespace demi
