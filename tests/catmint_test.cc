// Dedicated Catmint (RDMA libOS) tests: the flow-control machinery (§6.2), receive-buffer
// reposting, connection lifecycle under pressure, multiplexing many connections over the shared
// queue pair, and the integrated Catmint×Cattree file queues.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catmint.h"

namespace demi {
namespace {

Sgarray MakeSga(LibOS& os, const std::string& data) {
  void* buf = os.DmaMalloc(data.size());
  std::memcpy(buf, data.data(), data.size());
  return Sgarray::Of(buf, static_cast<uint32_t>(data.size()));
}

std::string TakeString(LibOS& os, QResult& r) {
  std::string out;
  for (uint32_t i = 0; i < r.sga.num_segs; i++) {
    out.append(static_cast<const char*>(r.sga.segs[i].buf), r.sga.segs[i].len);
  }
  os.FreeSga(r.sga);
  return out;
}

class CatmintTest : public ::testing::Test {
 protected:
  explicit CatmintTest(Catmint::Config server_extra = {}, Catmint::Config client_extra = {})
      : net_(LinkConfig{}, 17) {
    Catmint::Config scfg = server_extra;
    scfg.mac = MacAddr{0x31};
    scfg.ip = Ipv4Addr::FromOctets(10, 8, 0, 1);
    Catmint::Config ccfg = client_extra;
    ccfg.mac = MacAddr{0x32};
    ccfg.ip = Ipv4Addr::FromOctets(10, 8, 0, 2);
    server_ = std::make_unique<Catmint>(net_, scfg, clock_);
    client_ = std::make_unique<Catmint>(net_, ccfg, clock_);
    server_->AddPeer(ccfg.ip, ccfg.mac);
    client_->AddPeer(scfg.ip, scfg.mac);
  }

  QResult WaitBoth(LibOS& self, QToken qt, int max_steps = 2'000'000) {
    for (int i = 0; i < max_steps; i++) {
      server_->PollOnce();
      client_->PollOnce();
      if (self.IsDone(qt)) {
        auto r = self.TryTake(qt);
        EXPECT_TRUE(r.ok());
        return r.ok() ? *r : QResult{};
      }
    }
    ADD_FAILURE() << "token did not complete";
    return QResult{};
  }

  // Establishes a connection; returns {client_qd, server_conn_qd}.
  std::pair<QueueDesc, QueueDesc> Establish(uint16_t port) {
    auto sqd = server_->Socket(SocketType::kStream);
    EXPECT_TRUE(sqd.ok());
    EXPECT_EQ(server_->Bind(*sqd, {server_->local_ip(), port}), Status::kOk);
    EXPECT_EQ(server_->Listen(*sqd, 16), Status::kOk);
    auto acc = server_->Accept(*sqd);
    auto cqd = client_->Socket(SocketType::kStream);
    auto conn = client_->Connect(*cqd, {server_->local_ip(), port});
    EXPECT_TRUE(conn.ok());
    EXPECT_EQ(WaitBoth(*client_, *conn).status, Status::kOk);
    QResult acc_r = WaitBoth(*server_, *acc);
    EXPECT_EQ(acc_r.status, Status::kOk);
    return {*cqd, acc_r.new_qd};
  }

  MonotonicClock clock_;
  SimNetwork net_;
  std::unique_ptr<Catmint> server_;
  std::unique_ptr<Catmint> client_;
};

TEST_F(CatmintTest, ManyConnectionsMultiplexOverOneQp) {
  // The §6.2 design point: one shared QP, connection ids multiplex over it.
  constexpr int kConns = 8;
  std::vector<std::pair<QueueDesc, QueueDesc>> conns;
  for (int i = 0; i < kConns; i++) {
    conns.push_back(Establish(static_cast<uint16_t>(700 + i)));
  }
  // Interleave messages on all connections; each must arrive on its own queue.
  std::vector<QToken> pops;
  for (auto& [cqd, sqd] : conns) {
    auto pop = server_->Pop(sqd);
    ASSERT_TRUE(pop.ok());
    pops.push_back(*pop);
  }
  for (int i = 0; i < kConns; i++) {
    auto push = client_->Push(conns[i].first, MakeSga(*client_, "conn-" + std::to_string(i)));
    ASSERT_TRUE(push.ok());
  }
  for (int i = 0; i < kConns; i++) {
    QResult r = WaitBoth(*server_, pops[i]);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(TakeString(*server_, r), "conn-" + std::to_string(i));
  }
  EXPECT_EQ(server_->device().stats().seq_violations, 0u);
}

class CatmintTinyPoolTest : public CatmintTest {
 protected:
  static Catmint::Config TinyPool() {
    Catmint::Config cfg;
    cfg.recv_buffers = 8;       // tiny device receive pool
    cfg.repost_threshold = 4;   // the fast path reposts aggressively
    cfg.send_window_msgs = 4;   // small credits too
    return cfg;
  }
  CatmintTinyPoolTest() : CatmintTest(TinyPool(), TinyPool()) {}
};

TEST_F(CatmintTinyPoolTest, SustainedTrafficSurvivesTinyReceivePool) {
  // With only 8 posted receive buffers and 4 credits, the fast path's §6.2 flow control must
  // keep reposting fast enough that no message is lost to RNR.
  auto [cqd, sqd] = Establish(800);
  constexpr int kMessages = 500;
  int received = 0;
  for (int i = 0; i < kMessages; i++) {
    auto push = client_->Push(cqd, MakeSga(*client_, "m" + std::to_string(i)));
    ASSERT_TRUE(push.ok());
    auto pop = server_->Pop(sqd);
    ASSERT_TRUE(pop.ok());
    QResult r = WaitBoth(*server_, *pop);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(TakeString(*server_, r), "m" + std::to_string(i));
    received++;
    // Also wait the push token so tokens don't accumulate.
    QResult pr = WaitBoth(*client_, *push);
    ASSERT_EQ(pr.status, Status::kOk);
  }
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(server_->device().stats().rnr_drops, 0u);
  EXPECT_GT(server_->stats().credit_updates_sent + client_->stats().credit_updates_sent, 0u);
}

TEST_F(CatmintTest, CloseWithBlockedSendsCancelsThem) {
  auto [cqd, sqd] = Establish(900);
  // Exhaust credits without the server popping, then close: blocked pushes must complete with
  // a cancellation, not hang.
  std::vector<QToken> pushes;
  for (int i = 0; i < 200; i++) {
    auto push = client_->Push(cqd, MakeSga(*client_, "x"));
    ASSERT_TRUE(push.ok());
    pushes.push_back(*push);
    client_->PollOnce();
    server_->PollOnce();
  }
  EXPECT_GT(client_->stats().sends_blocked_on_credits, 0u);
  ASSERT_EQ(client_->Close(cqd), Status::kOk);
  int ok = 0;
  int cancelled = 0;
  for (QToken qt : pushes) {
    QResult r = WaitBoth(*client_, qt, 500000);
    if (r.status == Status::kOk) {
      ok++;
    } else {
      cancelled++;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(cancelled, 0);
  EXPECT_EQ(ok + cancelled, 200);
}

// An exhausted heap fails the push with kNoMemory instead of aborting; once the heap heals,
// the same push is echoed end to end.
TEST_F(CatmintTest, PushFailsWithNoMemoryAndRecovers) {
  auto [cqd, sqd] = Establish(930);
  FaultInjector faults;
  FaultPlan all_allocs_fail;
  all_allocs_fail.seed = 42;
  all_allocs_fail.alloc_fail = 1.0;
  client_->allocator().SetFaultInjector(&faults);
  faults.Arm(all_allocs_fail);
  // Not heap memory: the push must copy it, and that allocation fails.
  std::string msg = "hello";
  const Sgarray sga = Sgarray::Of(msg.data(), static_cast<uint32_t>(msg.size()));
  auto push = client_->Push(cqd, sga);
  faults.Disarm();
  client_->allocator().SetFaultInjector(nullptr);
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(WaitBoth(*client_, *push).status, Status::kNoMemory);
  EXPECT_GT(faults.GetStats().alloc_failures, 0u);

  auto retry = client_->Push(cqd, sga);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(WaitBoth(*client_, *retry).status, Status::kOk);
  auto pop = server_->Pop(sqd);
  ASSERT_TRUE(pop.ok());
  QResult req = WaitBoth(*server_, *pop);
  ASSERT_EQ(req.status, Status::kOk);
  auto echo = server_->Push(sqd, req.sga);
  ASSERT_TRUE(echo.ok());
  server_->FreeSga(req.sga);
  auto reply = client_->Pop(cqd);
  ASSERT_TRUE(reply.ok());
  QResult r = WaitBoth(*client_, *reply);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(TakeString(*client_, r), msg);
}

TEST_F(CatmintTest, ListenerBacklogRejectsOverflow) {
  auto sqd = server_->Socket(SocketType::kStream);
  ASSERT_EQ(server_->Bind(*sqd, {server_->local_ip(), 950}), Status::kOk);
  ASSERT_EQ(server_->Listen(*sqd, 2), Status::kOk);  // backlog 2, never accepted
  std::vector<QToken> conns;
  std::vector<QueueDesc> qds;
  for (int i = 0; i < 5; i++) {
    auto cqd = client_->Socket(SocketType::kStream);
    auto conn = client_->Connect(*cqd, {server_->local_ip(), 950});
    ASSERT_TRUE(conn.ok());
    conns.push_back(*conn);
    qds.push_back(*cqd);
  }
  int established = 0;
  int refused = 0;
  for (QToken qt : conns) {
    QResult r = WaitBoth(*client_, qt);
    if (r.status == Status::kOk) {
      established++;
    } else {
      EXPECT_EQ(r.status, Status::kConnectionRefused);
      refused++;
    }
  }
  EXPECT_EQ(established, 2);
  EXPECT_EQ(refused, 3);
  EXPECT_EQ(server_->stats().connects_rejected, 3u);
}

TEST_F(CatmintTest, DatagramSocketsUnsupported) {
  EXPECT_EQ(client_->Socket(SocketType::kDatagram).error(), Status::kNotSupported);
}

TEST_F(CatmintTest, ConnectToUnknownAddressFailsFast) {
  auto cqd = client_->Socket(SocketType::kStream);
  // No AddPeer mapping for this IP: rdma_cm-style resolution fails synchronously.
  EXPECT_EQ(client_->Connect(*cqd, {Ipv4Addr::FromOctets(10, 99, 99, 99), 1}).error(),
            Status::kNotFound);
}

TEST(CatmintCattreeTest, FileQueuesOverRdmaLibOs) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 19);
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Catmint::Config cfg;
  cfg.mac = MacAddr{0x41};
  cfg.ip = Ipv4Addr::FromOctets(10, 8, 1, 1);
  cfg.disk = &disk;
  Catmint os(net, cfg, clock);
  ASSERT_TRUE(os.has_storage());

  auto fqd = os.Open("wal");
  ASSERT_TRUE(fqd.ok());
  for (const char* rec : {"alpha", "beta", "gamma"}) {
    auto push = os.Push(*fqd, MakeSga(os, rec));
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
    seen.push_back(TakeString(os, *r));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST_F(CatmintTest, ZeroCopyLargeMessageUsesRegisteredHeap) {
  auto [cqd, sqd] = Establish(1000);
  const size_t size = 8 * 1024;  // above the zero-copy threshold, below max_msg_size
  void* big = client_->DmaMalloc(size);
  std::memset(big, 0x6C, size);
  auto push = client_->Push(cqd, Sgarray::Of(big, static_cast<uint32_t>(size)));
  ASSERT_TRUE(push.ok());
  client_->DmaFree(big);  // UAF protection: the libOS reference keeps it pinned
  auto pop = server_->Pop(sqd);
  ASSERT_TRUE(pop.ok());
  QResult r = WaitBoth(*server_, *pop);
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.sga.TotalBytes(), size);
  EXPECT_EQ(static_cast<const uint8_t*>(r.sga.segs[0].buf)[size / 2], 0x6C);
  server_->FreeSga(r.sga);
}

}  // namespace
}  // namespace demi
