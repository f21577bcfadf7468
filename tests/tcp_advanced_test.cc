// Advanced TCP state-machine and feature tests: close choreography in every order, RFC 7323
// timestamps (negotiation, RTTM, PAWS), zero-window persistence, listener lifecycle, window
// scaling with large windows, and pcap capture.
//
// All tests run two full stacks in deterministic stepped mode on a shared VirtualClock.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/clock.h"
#include "src/net/tcp/tcp.h"
#include "src/netsim/sim_network.h"

namespace demi {
namespace {

struct Host {
  Host(SimNetwork& net, VirtualClock& clock, MacAddr mac, Ipv4Addr ip, TcpConfig cfg)
      : nic(net, mac, clock),
        alloc(nic.registrar()),
        sched(clock),
        eth(nic, ip),
        tcp(eth, sched, alloc, clock, cfg) {}

  SimNic nic;
  PoolAllocator alloc;
  Scheduler sched;
  EthernetLayer eth;
  TcpStack tcp;
};

class TcpAdvancedTest : public ::testing::Test {
 protected:
  explicit TcpAdvancedTest(LinkConfig link = LinkConfig{}, TcpConfig a_cfg = TcpConfig{},
                           TcpConfig b_cfg = TcpConfig{})
      : net_(link, 11),
        a_(net_, clock_, MacAddr{0xA}, Ipv4Addr::FromOctets(10, 1, 1, 1), a_cfg),
        b_(net_, clock_, MacAddr{0xB}, Ipv4Addr::FromOctets(10, 1, 1, 2), b_cfg) {
    a_.eth.arp().Insert(b_.eth.local_ip(), MacAddr{0xB});
    b_.eth.arp().Insert(a_.eth.local_ip(), MacAddr{0xA});
  }

  void Step() {
    const TimeNs now = clock_.Now();
    const size_t activity = a_.eth.PollOnce(now) + b_.eth.PollOnce(now);
    a_.sched.Poll();
    b_.sched.Poll();
    if (activity > 0) {
      return;
    }
    TimeNs next = 0;
    for (TimeNs t : {net_.NextDeliveryTime(), a_.sched.timer_wheel().NextDeadline(),
                     b_.sched.timer_wheel().NextDeadline()}) {
      if (t != 0 && (next == 0 || t < next)) {
        next = t;
      }
    }
    if (next > clock_.Now()) {
      clock_.SetTime(next);
    } else {
      clock_.Advance(kMicrosecond);
    }
  }

  template <typename Pred>
  bool RunUntil(Pred&& pred, int max_steps = 200000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) {
        return true;
      }
      Step();
    }
    return pred();
  }

  std::pair<std::shared_ptr<TcpConnection>, std::shared_ptr<TcpConnection>> EstablishPair(
      uint16_t port = 9999) {
    auto listener = b_.tcp.Listen(port, 16);
    EXPECT_TRUE(listener.ok());
    auto client = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), port});
    EXPECT_TRUE(client.ok());
    EXPECT_TRUE(RunUntil([&] {
      return (*client)->state() == TcpState::kEstablished && (*listener)->HasPending();
    }));
    return {*client, (*listener)->Accept()};
  }

  void PushString(Host& host, const std::shared_ptr<TcpConnection>& conn,
                  const std::string& data) {
    void* app = host.alloc.Alloc(data.size());
    std::memcpy(app, data.data(), data.size());
    ASSERT_EQ(conn->Push(Buffer::FromApp(host.alloc, app, data.size())), Status::kOk);
    host.alloc.Free(app);
  }

  std::string DrainString(const std::shared_ptr<TcpConnection>& conn, size_t expect) {
    std::string out;
    RunUntil([&] {
      while (auto c = conn->PopData()) {
        out.append(reinterpret_cast<const char*>(c->data()), c->size());
      }
      return out.size() >= expect;
    });
    return out;
  }

  VirtualClock clock_;
  SimNetwork net_;
  Host a_;
  Host b_;
};

// --- Close choreography ---

TEST_F(TcpAdvancedTest, SimultaneousCloseReachesClosedOnBothSides) {
  auto [client, server] = EstablishPair();
  // Both FIN before either sees the other's: FIN_WAIT_1 -> CLOSING -> TIME_WAIT on both ends.
  ASSERT_EQ(client->Close(), Status::kOk);
  ASSERT_EQ(server->Close(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] {
    return client->state() == TcpState::kClosed && server->state() == TcpState::kClosed;
  }));
  EXPECT_EQ(client->error(), Status::kOk);
  EXPECT_EQ(server->error(), Status::kOk);
}

TEST_F(TcpAdvancedTest, HalfCloseStillDeliversCounterDirection) {
  auto [client, server] = EstablishPair();
  ASSERT_EQ(client->Close(), Status::kOk);  // client -> server direction done
  ASSERT_TRUE(RunUntil([&] { return server->EndOfStream(); }));
  // Server can still send to the half-closed client (CLOSE_WAIT -> data flows).
  PushString(b_, server, "late data after your FIN");
  EXPECT_EQ(DrainString(client, 24), "late data after your FIN");
  ASSERT_EQ(server->Close(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] { return server->state() == TcpState::kClosed; }));
}

TEST_F(TcpAdvancedTest, FinWait2ThenTimeWaitExpires) {
  auto [client, server] = EstablishPair();
  ASSERT_EQ(client->Close(), Status::kOk);
  // Server acks the FIN but doesn't close yet: client parks in FIN_WAIT_2.
  ASSERT_TRUE(RunUntil([&] { return client->state() == TcpState::kFinWait2; }));
  ASSERT_EQ(server->Close(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] { return client->state() == TcpState::kClosed; }, 400000));
  EXPECT_EQ(client->error(), Status::kOk);
}

TEST_F(TcpAdvancedTest, CloseDuringSynSentAbortsQuietly) {
  auto client = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), 4444});  // nothing listens
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->Close(), Status::kOk);
  EXPECT_EQ((*client)->state(), TcpState::kClosed);
}

TEST_F(TcpAdvancedTest, ListenerClosePreventsNewConnections) {
  auto listener = b_.tcp.Listen(1234, 4);
  ASSERT_TRUE(listener.ok());
  b_.tcp.CloseListener(*listener);
  auto client = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), 1234});
  ASSERT_TRUE(RunUntil([&] { return (*client)->state() == TcpState::kClosed; }));
  EXPECT_EQ((*client)->error(), Status::kConnectionRefused);
}

TEST_F(TcpAdvancedTest, PortReusableAfterListenerClose) {
  auto l1 = b_.tcp.Listen(1500, 4);
  ASSERT_TRUE(l1.ok());
  b_.tcp.CloseListener(*l1);
  auto l2 = b_.tcp.Listen(1500, 4);
  ASSERT_TRUE(l2.ok());
  auto client = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), 1500});
  ASSERT_TRUE(RunUntil([&] { return (*l2)->HasPending(); }));
}

// --- RFC 7323 timestamps ---

TEST_F(TcpAdvancedTest, TimestampsNegotiatedByDefault) {
  auto [client, server] = EstablishPair();
  EXPECT_TRUE(client->timestamps_enabled());
  EXPECT_TRUE(server->timestamps_enabled());
}

TEST_F(TcpAdvancedTest, TimestampRttSamplesAccumulate) {
  auto [client, server] = EstablishPair();
  std::string data(64 * 1024, 't');
  PushString(a_, client, data);
  EXPECT_EQ(DrainString(server, data.size()).size(), data.size());
  EXPECT_GT(client->conn_stats().ts_rtt_samples, 10u);
}

class TcpNoTimestampsTest : public TcpAdvancedTest {
 protected:
  static TcpConfig NoTs() {
    TcpConfig cfg;
    cfg.timestamps = false;
    return cfg;
  }
  TcpNoTimestampsTest() : TcpAdvancedTest(LinkConfig{}, NoTs(), NoTs()) {}
};

TEST_F(TcpNoTimestampsTest, DisabledWhenNotOffered) {
  auto [client, server] = EstablishPair();
  EXPECT_FALSE(client->timestamps_enabled());
  EXPECT_FALSE(server->timestamps_enabled());
  std::string data(32 * 1024, 'n');
  PushString(a_, client, data);
  EXPECT_EQ(DrainString(server, data.size()), data);
  EXPECT_EQ(client->conn_stats().ts_rtt_samples, 0u);
}

class TcpMixedTimestampsTest : public TcpAdvancedTest {
 protected:
  static TcpConfig NoTs() {
    TcpConfig cfg;
    cfg.timestamps = false;
    return cfg;
  }
  TcpMixedTimestampsTest() : TcpAdvancedTest(LinkConfig{}, TcpConfig{}, NoTs()) {}
};

TEST_F(TcpMixedTimestampsTest, FallsBackWhenPeerDeclines) {
  // Client offers timestamps; server is configured without them: both must run plain.
  auto [client, server] = EstablishPair();
  EXPECT_FALSE(server->timestamps_enabled());
  std::string data(16 * 1024, 'm');
  PushString(a_, client, data);
  EXPECT_EQ(DrainString(server, data.size()), data);
}

class TcpReorderPawsTest : public TcpAdvancedTest {
 protected:
  TcpReorderPawsTest()
      : TcpAdvancedTest(LinkConfig{.reorder = 0.3, .reorder_extra = 200 * kMicrosecond}) {}
};

TEST_F(TcpReorderPawsTest, HeavyReorderingStillDeliversWithTimestamps) {
  auto [client, server] = EstablishPair();
  std::string data(64 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(i % 253);
  }
  PushString(a_, client, data);
  EXPECT_EQ(DrainString(server, data.size()), data);
  // PAWS may reject late (reordered) segments; the stream must recover regardless.
  EXPECT_GE(server->conn_stats().paws_drops + server->conn_stats().out_of_order, 1u);
}

// --- Flow control ---

class TcpTinyWindowTest : public TcpAdvancedTest {
 protected:
  static TcpConfig Tiny() {
    TcpConfig cfg;
    cfg.recv_buffer_bytes = 4096;  // tiny receive buffer forces zero-window episodes
    cfg.window_scale = 0;
    return cfg;
  }
  TcpTinyWindowTest() : TcpAdvancedTest(LinkConfig{}, Tiny(), Tiny()) {}
};

TEST_F(TcpTinyWindowTest, ZeroWindowStallsAndRecovers) {
  auto [client, server] = EstablishPair();
  std::string data(64 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(i * 7);
  }
  PushString(a_, client, data);
  // Let the sender fill the 4 kB window without the app draining: it must stall, not overrun.
  RunUntil([&] { return false; }, 5000);
  size_t buffered = 0;
  std::string out;
  // Now drain slowly: every drained chunk reopens the window and more data flows.
  ASSERT_TRUE(RunUntil(
      [&] {
        while (auto c = server->PopData()) {
          out.append(reinterpret_cast<const char*>(c->data()), c->size());
        }
        return out.size() >= data.size();
      },
      500000));
  EXPECT_EQ(out, data);
  (void)buffered;
}

TEST_F(TcpAdvancedTest, LargeWindowScalingMovesMoreThan64K) {
  // With wscale=7 the advertised window exceeds the unscaled 64 kB cap; a 512 kB burst must
  // stream without the sender throttling to 64 kB-per-RTT.
  auto [client, server] = EstablishPair();
  std::string data(512 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(i % 127);
  }
  PushString(a_, client, data);
  EXPECT_EQ(DrainString(server, data.size()), data);
  EXPECT_GT(client->cwnd(), 64u * 1024u);  // Cubic grew past the unscaled window cap
}

// --- MSS negotiation with a smaller MTU peer ---

TEST(TcpMtuTest, MssClampsToSmallerMtu) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{.mtu = 600}, 2);
  TcpConfig cfg;
  Host a(net, clock, MacAddr{0x1}, Ipv4Addr::FromOctets(10, 2, 0, 1), cfg);
  Host b(net, clock, MacAddr{0x2}, Ipv4Addr::FromOctets(10, 2, 0, 2), cfg);
  a.eth.arp().Insert(b.eth.local_ip(), MacAddr{0x2});
  b.eth.arp().Insert(a.eth.local_ip(), MacAddr{0x1});
  auto step = [&] {
    const TimeNs now = clock.Now();
    const size_t activity = a.eth.PollOnce(now) + b.eth.PollOnce(now);
    a.sched.Poll();
    b.sched.Poll();
    if (activity == 0) {
      clock.Advance(kMicrosecond);
    }
  };
  auto listener = b.tcp.Listen(80, 4);
  auto client = a.tcp.Connect(SocketAddress{b.eth.local_ip(), 80});
  for (int i = 0; i < 100000 && !(*listener)->HasPending(); i++) {
    step();
  }
  ASSERT_TRUE((*listener)->HasPending());
  auto server = (*listener)->Accept();

  std::string data(8000, 'q');
  void* app = a.alloc.Alloc(data.size());
  std::memcpy(app, data.data(), data.size());
  ASSERT_EQ((*client)->Push(Buffer::FromApp(a.alloc, app, data.size())), Status::kOk);
  a.alloc.Free(app);
  std::string out;
  for (int i = 0; i < 200000 && out.size() < data.size(); i++) {
    step();
    while (auto c = server->PopData()) {
      out.append(reinterpret_cast<const char*>(c->data()), c->size());
    }
  }
  EXPECT_EQ(out, data);  // every segment fit the 600 B MTU or the NIC would have rejected it
  EXPECT_EQ(net.GetStats().frames_sent, a.nic.stats().tx_frames + b.nic.stats().tx_frames);
}

// --- Retransmission limits ---

TEST(TcpDeadPeerTest, RetransmitLimitAbortsTheConnection) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, 3);
  TcpConfig cfg;
  cfg.max_retransmits = 4;
  Host a(net, clock, MacAddr{0x1}, Ipv4Addr::FromOctets(10, 3, 0, 1), cfg);
  Host b(net, clock, MacAddr{0x2}, Ipv4Addr::FromOctets(10, 3, 0, 2), cfg);
  a.eth.arp().Insert(b.eth.local_ip(), MacAddr{0x2});
  b.eth.arp().Insert(a.eth.local_ip(), MacAddr{0x1});
  auto step = [&](bool pump_b) {
    size_t n = a.eth.PollOnce(clock.Now());
    a.sched.Poll();
    if (pump_b) {
      n += b.eth.PollOnce(clock.Now());
      b.sched.Poll();
    }
    if (n == 0) {
      const TimeNs next = a.sched.timer_wheel().NextDeadline();
      if (next > clock.Now()) {
        clock.SetTime(next);
      } else {
        clock.Advance(kMicrosecond);
      }
    }
  };
  auto listener = b.tcp.Listen(80, 4);
  auto client = a.tcp.Connect(SocketAddress{b.eth.local_ip(), 80});
  for (int i = 0; i < 100000 && (*client)->state() != TcpState::kEstablished; i++) {
    step(true);
  }
  ASSERT_EQ((*client)->state(), TcpState::kEstablished);

  // The peer "dies": stop pumping b entirely; a's data drains into the void.
  void* app = a.alloc.Alloc(2048);
  std::memset(app, 1, 2048);
  ASSERT_EQ((*client)->Push(Buffer::FromApp(a.alloc, app, 2048)), Status::kOk);
  a.alloc.Free(app);
  for (int i = 0; i < 400000 && (*client)->state() != TcpState::kClosed; i++) {
    step(false);
  }
  EXPECT_EQ((*client)->state(), TcpState::kClosed);
  // Established-connection give-up surfaces as an abort, not a connect timeout.
  EXPECT_EQ((*client)->error(), Status::kConnectionAborted);
  EXPECT_GE((*client)->conn_stats().retransmits, 4u);
}

// --- pcap capture ---

TEST_F(TcpAdvancedTest, PcapCapturesHandshakeAndData) {
  char path[] = "/tmp/demi_pcap_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  ASSERT_TRUE(net_.EnablePcap(path));

  auto [client, server] = EstablishPair(4321);
  PushString(a_, client, "captured!");
  DrainString(server, 9);
  const uint64_t frames = net_.PcapFramesWritten();
  EXPECT_GE(frames, 4u);  // SYN, SYN-ACK, ACK, data, ack...
  net_.DisablePcap();

  // Validate the file: global header magic + at least `frames` records.
  FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  uint32_t magic = 0;
  ASSERT_EQ(std::fread(&magic, 4, 1, f), 1u);
  EXPECT_EQ(magic, 0xA1B2C3D4u);
  std::fseek(f, 24, SEEK_SET);  // skip global header
  uint64_t records = 0;
  for (;;) {
    uint32_t rec[4];
    if (std::fread(rec, sizeof(rec), 1, f) != 1) {
      break;
    }
    std::fseek(f, rec[2], SEEK_CUR);  // skip frame bytes (incl_len)
    records++;
  }
  std::fclose(f);
  EXPECT_EQ(records, frames);
  ::unlink(path);
}

// --- Stack-level stats and RST behaviour ---

TEST_F(TcpAdvancedTest, StrayeSegmentToClosedPortGetsRst) {
  auto [client, server] = EstablishPair(2500);
  // Reach into the stack: connect to a port that never listened; the RST must come back fast
  // (no RTO wait).
  const uint64_t rsts_before = b_.tcp.stats().rst_sent;
  auto c2 = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), 2501});
  ASSERT_TRUE(RunUntil([&] { return (*c2)->state() == TcpState::kClosed; }, 20000));
  EXPECT_EQ(b_.tcp.stats().rst_sent, rsts_before + 1);
}

TEST_F(TcpAdvancedTest, ConnectionCountsAndReap) {
  auto [client, server] = EstablishPair(2600);
  EXPECT_EQ(a_.tcp.NumConnections(), 1u);
  EXPECT_EQ(b_.tcp.NumConnections(), 1u);
  ASSERT_EQ(client->Close(), Status::kOk);
  ASSERT_EQ(server->Close(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] {
    return client->state() == TcpState::kClosed && server->state() == TcpState::kClosed;
  }));
  client->ReleaseByApp();
  server->ReleaseByApp();
  a_.tcp.Reap();
  b_.tcp.Reap();
  EXPECT_EQ(a_.tcp.NumConnections(), 0u);
  EXPECT_EQ(b_.tcp.NumConnections(), 0u);
  EXPECT_EQ(a_.tcp.stats().conns_reaped, 1u);
}

}  // namespace
}  // namespace demi
