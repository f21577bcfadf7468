// Tests for the network stacks: headers, Ethernet/ARP, UDP, and TCP (Catnip's stack).
//
// TCP tests run two full stacks over the simulated fabric in deterministic stepped mode: a
// shared VirtualClock advances exactly to the next network/timer event, so every loss and
// retransmission is reproducible — the testing style Catnip's deterministic design enables
// (paper §6.3).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/memory/buffer.h"
#include "src/net/ethernet.h"
#include "src/net/headers.h"
#include "src/net/tcp/congestion.h"
#include "src/net/tcp/tcp.h"
#include "src/net/udp.h"
#include "src/netsim/sim_network.h"

namespace demi {
namespace {

// --- Header serialization ---

TEST(HeadersTest, EthernetRoundTrip) {
  uint8_t buf[EthernetHeader::kSize];
  EthernetHeader h{MacAddr{0x010203040506}, MacAddr{0x0A0B0C0D0E0F}, EtherType::kIpv4};
  h.Serialize(buf);
  auto parsed = EthernetHeader::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst.value, 0x010203040506u);
  EXPECT_EQ(parsed->src.value, 0x0A0B0C0D0E0Fu);
  EXPECT_EQ(parsed->ether_type, EtherType::kIpv4);
}

TEST(HeadersTest, ArpRoundTrip) {
  uint8_t buf[ArpPacket::kSize];
  ArpPacket p;
  p.op = ArpPacket::Op::kRequest;
  p.sender_mac = MacAddr{0x111111111111};
  p.sender_ip = Ipv4Addr::FromOctets(10, 0, 0, 1);
  p.target_mac = MacAddr::Zero();
  p.target_ip = Ipv4Addr::FromOctets(10, 0, 0, 2);
  p.Serialize(buf);
  auto parsed = ArpPacket::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, ArpPacket::Op::kRequest);
  EXPECT_EQ(parsed->sender_ip.ToString(), "10.0.0.1");
  EXPECT_EQ(parsed->target_ip.ToString(), "10.0.0.2");
}

TEST(HeadersTest, Ipv4ChecksumValidates) {
  uint8_t buf[40] = {0};  // header + 20 payload bytes, as a receiver sees it
  Ipv4Header h;
  h.total_length = 40;
  h.protocol = IpProto::kTcp;
  h.src = Ipv4Addr::FromOctets(192, 168, 0, 1);
  h.dst = Ipv4Addr::FromOctets(192, 168, 0, 2);
  h.Serialize(buf);
  ASSERT_TRUE(Ipv4Header::Parse(buf).has_value());
  buf[15] ^= 0x40;  // corrupt a bit
  EXPECT_FALSE(Ipv4Header::Parse(buf).has_value());
}

TEST(HeadersTest, TcpChecksumCoversPayload) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 1, 1, 1);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(2, 2, 2, 2);
  std::vector<uint8_t> payload = {'d', 'a', 't', 'a'};
  TcpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.seq = 1000;
  h.ack = 2000;
  h.flags.ack = true;
  h.flags.psh = true;
  h.window = 512;
  std::vector<uint8_t> wire(h.SerializedSize() + payload.size());
  h.Serialize(wire.data(), src, dst, payload);
  std::memcpy(wire.data() + h.SerializedSize(), payload.data(), payload.size());

  size_t hdr_len = 0;
  auto parsed = TcpHeader::Parse(wire, src, dst, &hdr_len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(hdr_len, TcpHeader::kBaseSize);
  EXPECT_EQ(parsed->seq, 1000u);
  EXPECT_EQ(parsed->ack, 2000u);
  EXPECT_TRUE(parsed->flags.psh);

  wire[hdr_len + 1] ^= 0xFF;  // corrupt payload: checksum must fail
  EXPECT_FALSE(TcpHeader::Parse(wire, src, dst, &hdr_len).has_value());
}

TEST(HeadersTest, TcpOptionsRoundTrip) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 1, 1, 1);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(2, 2, 2, 2);
  TcpHeader h;
  h.src_port = 10;
  h.dst_port = 20;
  h.flags.syn = true;
  h.mss_option = 1460;
  h.window_scale_option = 7;
  std::vector<uint8_t> wire(h.SerializedSize());
  h.Serialize(wire.data(), src, dst, std::span<const uint8_t>{});
  size_t hdr_len = 0;
  auto parsed = TcpHeader::Parse(wire, src, dst, &hdr_len);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->mss_option.has_value());
  EXPECT_EQ(*parsed->mss_option, 1460);
  ASSERT_TRUE(parsed->window_scale_option.has_value());
  EXPECT_EQ(*parsed->window_scale_option, 7);
  EXPECT_EQ(hdr_len, 28u);  // 20 base + 7 options padded to 8
}

TEST(HeadersTest, UdpRoundTrip) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 1, 1, 1);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(2, 2, 2, 2);
  std::vector<uint8_t> payload = {9, 9, 9};
  UdpHeader h;
  h.src_port = 53;
  h.dst_port = 5353;
  h.length = static_cast<uint16_t>(UdpHeader::kSize + payload.size());
  uint8_t buf[UdpHeader::kSize + 3];
  h.Serialize(buf, src, dst, payload);
  std::memcpy(buf + UdpHeader::kSize, payload.data(), payload.size());
  auto parsed = UdpHeader::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 53);
  EXPECT_EQ(parsed->dst_port, 5353);
  EXPECT_EQ(parsed->length, 11);
}

TEST(HeadersTest, ChecksumOddLengths) {
  InternetChecksum a;
  uint8_t data[3] = {0x12, 0x34, 0x56};
  a.Add(data);
  InternetChecksum b;
  b.Add({data, 1});
  b.Add({data + 1, 2});
  EXPECT_EQ(a.Finish(), b.Finish());
}

// --- Congestion control ---

TEST(CongestionTest, CubicSlowStartDoubles) {
  CubicCongestion cc(1000);
  const size_t initial = cc.cwnd();
  cc.OnAck(initial, kSecond);
  EXPECT_EQ(cc.cwnd(), 2 * initial);  // slow start: cwnd += bytes_acked
}

TEST(CongestionTest, CubicTimeoutCollapses) {
  CubicCongestion cc(1000);
  cc.OnAck(cc.cwnd(), kSecond);
  const size_t before = cc.cwnd();
  cc.OnTimeout(2 * kSecond);
  EXPECT_LT(cc.cwnd(), before / 2);
}

TEST(CongestionTest, CubicFastRetransmitBetaDecrease) {
  CubicCongestion cc(1000);
  const size_t before = cc.cwnd();
  cc.OnFastRetransmit(kSecond);
  EXPECT_NEAR(static_cast<double>(cc.cwnd()), 0.7 * static_cast<double>(before), 1000.0);
}

TEST(CongestionTest, CubicGrowsAfterRecovery) {
  CubicCongestion cc(1000);
  cc.OnFastRetransmit(kSecond);  // forces congestion-avoidance regime
  const size_t after_loss = cc.cwnd();
  TimeNs t = kSecond;
  for (int i = 0; i < 2000; i++) {
    t += kMillisecond;
    cc.OnAck(1000, t);
  }
  EXPECT_GT(cc.cwnd(), after_loss);  // cubic regrowth toward and past w_max
}

TEST(RttEstimatorTest, TracksSamplesAndBacksOff) {
  TcpConfig cfg;
  RttEstimator est(cfg);
  EXPECT_EQ(est.rto(), cfg.initial_rto);
  est.OnSample(100 * kMicrosecond);
  EXPECT_EQ(est.srtt(), 100 * kMicrosecond);
  // RTO floors at min_rto for tiny RTTs.
  EXPECT_EQ(est.rto(), cfg.min_rto);
  const DurationNs before = est.rto();
  est.Backoff();
  EXPECT_EQ(est.rto(), 2 * before);
}

// --- Two-host harness ---

struct Host {
  Host(SimNetwork& net, VirtualClock& clock, MacAddr mac, Ipv4Addr ip, TcpConfig cfg = {})
      : nic(net, mac, clock),
        alloc(nic.registrar()),
        sched(clock),
        eth(nic, ip),
        udp(eth, alloc),
        tcp(eth, sched, alloc, clock, cfg) {}

  SimNic nic;
  PoolAllocator alloc;
  Scheduler sched;
  EthernetLayer eth;
  UdpStack udp;
  TcpStack tcp;
};

class NetPairTest : public ::testing::Test {
 protected:
  static constexpr MacAddr kMacA{0xAA};
  static constexpr MacAddr kMacB{0xBB};

  explicit NetPairTest(LinkConfig link = LinkConfig{}, uint64_t seed = 1,
                       TcpConfig tcp_cfg = TcpConfig{})
      : net_(link, seed),
        a_(net_, clock_, kMacA, Ipv4Addr::FromOctets(10, 0, 0, 1), tcp_cfg),
        b_(net_, clock_, kMacB, Ipv4Addr::FromOctets(10, 0, 0, 2), tcp_cfg) {
    // Warm ARP (paper's fast path assumes a warm cache); ARP-miss behaviour is tested
    // explicitly elsewhere.
    a_.eth.arp().Insert(b_.eth.local_ip(), kMacB);
    b_.eth.arp().Insert(a_.eth.local_ip(), kMacA);
  }

  // One deterministic step: poll both hosts; if nothing was deliverable, jump the clock to the
  // next event (packet delivery or timer).
  void Step() {
    size_t activity = 0;
    const TimeNs now = clock_.Now();
    activity += a_.eth.PollOnce(now);
    activity += b_.eth.PollOnce(now);
    a_.sched.Poll();
    b_.sched.Poll();
    if (activity > 0) {
      return;
    }
    TimeNs next = 0;
    auto consider = [&next](TimeNs t) {
      if (t != 0 && (next == 0 || t < next)) {
        next = t;
      }
    };
    consider(net_.NextDeliveryTime());
    consider(a_.sched.timer_wheel().NextDeadline());
    consider(b_.sched.timer_wheel().NextDeadline());
    if (next > clock_.Now()) {
      clock_.SetTime(next);
    } else {
      clock_.Advance(1 * kMicrosecond);
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

  // Establishes a connection pair (client on a_, server listener on b_) and returns both ends.
  std::pair<std::shared_ptr<TcpConnection>, std::shared_ptr<TcpConnection>> EstablishPair(
      uint16_t port = 7777) {
    auto listener = b_.tcp.Listen(port, 16);
    EXPECT_TRUE(listener.ok());
    auto client = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), port});
    EXPECT_TRUE(client.ok());
    EXPECT_TRUE(RunUntil([&] {
      return (*client)->state() == TcpState::kEstablished && (*listener)->HasPending();
    }));
    auto server = (*listener)->Accept();
    EXPECT_NE(server, nullptr);
    return {*client, server};
  }

  // Pushes `data` on `from` and pops until `to` has received it all; returns the received bytes.
  std::string Transfer(const std::shared_ptr<TcpConnection>& from,
                       const std::shared_ptr<TcpConnection>& to, const std::string& data) {
    void* mem = from == nullptr ? nullptr : nullptr;
    (void)mem;
    PoolAllocator& alloc = (from.get() != nullptr && from->local().ip == a_.eth.local_ip())
                               ? a_.alloc
                               : b_.alloc;
    void* app = alloc.Alloc(data.size());
    std::memcpy(app, data.data(), data.size());
    Buffer buf = Buffer::FromApp(alloc, app, data.size());
    EXPECT_EQ(from->Push(std::move(buf)), Status::kOk);
    std::string received;
    RunUntil([&] {
      while (auto chunk = to->PopData()) {
        received.append(reinterpret_cast<const char*>(chunk->data()), chunk->size());
      }
      return received.size() >= data.size();
    });
    alloc.Free(app);
    return received;
  }

  VirtualClock clock_;
  SimNetwork net_;
  Host a_;
  Host b_;
};

// --- Ethernet / ARP ---

class EthernetTest : public NetPairTest {};

TEST_F(EthernetTest, ArpResolutionOnDemand) {
  // Fresh host with an empty cache.
  Host c(net_, clock_, MacAddr{0xCC}, Ipv4Addr::FromOctets(10, 0, 0, 3));
  auto sock = c.udp.Bind(1000);
  ASSERT_TRUE(sock.ok());
  auto bsock = b_.udp.Bind(2000);
  ASSERT_TRUE(bsock.ok());

  Buffer payload = Buffer::Allocate(c.alloc, 5);
  std::memcpy(payload.mutable_data(), "hello", 5);
  // ARP miss: packet queued, request broadcast; reply flushes it.
  ASSERT_EQ(c.udp.SendTo(**sock, SocketAddress{b_.eth.local_ip(), 2000}, payload), Status::kOk);
  EXPECT_EQ(c.eth.stats().arp_requests_sent, 1u);

  bool got = false;
  for (int i = 0; i < 1000 && !got; i++) {
    clock_.Advance(2 * kMicrosecond);
    a_.eth.PollOnce(clock_.Now());
    b_.eth.PollOnce(clock_.Now());
    c.eth.PollOnce(clock_.Now());
    got = (*bsock)->HasData();
  }
  ASSERT_TRUE(got);
  auto d = (*bsock)->PopDatagram();
  EXPECT_EQ(std::memcmp(d->payload.data(), "hello", 5), 0);
  // And c learned the mapping.
  EXPECT_TRUE(c.eth.arp().Lookup(b_.eth.local_ip()).has_value());
}

// --- UDP ---

class UdpTest : public NetPairTest {};

TEST_F(UdpTest, DatagramRoundTrip) {
  auto sa = a_.udp.Bind(5000);
  auto sb = b_.udp.Bind(6000);
  ASSERT_TRUE(sa.ok() && sb.ok());
  Buffer payload = Buffer::Allocate(a_.alloc, 64);
  std::memset(payload.mutable_data(), 0x42, 64);
  ASSERT_EQ(a_.udp.SendTo(**sa, SocketAddress{b_.eth.local_ip(), 6000}, payload), Status::kOk);
  ASSERT_TRUE(RunUntil([&] { return (*sb)->HasData(); }));
  auto d = (*sb)->PopDatagram();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload.size(), 64u);
  EXPECT_EQ(d->src.port, 5000);
  EXPECT_EQ(d->src.ip, a_.eth.local_ip());
}

TEST_F(UdpTest, EphemeralPortsAreDistinct) {
  auto s1 = a_.udp.Bind(0);
  auto s2 = a_.udp.Bind(0);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE((*s1)->local_port(), (*s2)->local_port());
}

TEST_F(UdpTest, BindConflictRejected) {
  auto s1 = a_.udp.Bind(700);
  ASSERT_TRUE(s1.ok());
  auto s2 = a_.udp.Bind(700);
  EXPECT_EQ(s2.error(), Status::kAddressInUse);
}

TEST_F(UdpTest, OversizeDatagramRejected) {
  auto sa = a_.udp.Bind(0);
  Buffer big = Buffer::Allocate(a_.alloc, 2000);  // > MTU budget
  EXPECT_EQ(a_.udp.SendTo(**sa, SocketAddress{b_.eth.local_ip(), 1}, big),
            Status::kMessageTooLong);
}

TEST_F(UdpTest, NoSocketCountsDrop) {
  auto sa = a_.udp.Bind(0);
  Buffer p = Buffer::Allocate(a_.alloc, 8);
  std::memset(p.mutable_data(), 0, 8);
  ASSERT_EQ(a_.udp.SendTo(**sa, SocketAddress{b_.eth.local_ip(), 9999}, p), Status::kOk);
  RunUntil([&] { return b_.udp.stats().rx_no_socket > 0; }, 10000);
  EXPECT_EQ(b_.udp.stats().rx_no_socket, 1u);
}

// --- TCP: clean-network behaviour ---

class TcpCleanTest : public NetPairTest {};

TEST_F(TcpCleanTest, ThreeWayHandshake) {
  auto [client, server] = EstablishPair();
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server->state(), TcpState::kEstablished);
  EXPECT_EQ(server->remote().ip, a_.eth.local_ip());
}

TEST_F(TcpCleanTest, SmallDataRoundTrip) {
  auto [client, server] = EstablishPair();
  EXPECT_EQ(Transfer(client, server, "ping"), "ping");
  EXPECT_EQ(Transfer(server, client, "pong!"), "pong!");
}

TEST_F(TcpCleanTest, LargeTransferSegmentsAndReassembles) {
  auto [client, server] = EstablishPair();
  std::string data(256 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(i * 131 + 17);
  }
  EXPECT_EQ(Transfer(client, server, data), data);
  EXPECT_GT(client->conn_stats().segments_sent, data.size() / 1500);
}

TEST_F(TcpCleanTest, MssNegotiatedFromMtu) {
  auto [client, server] = EstablishPair();
  std::string data(10000, 'm');
  Transfer(client, server, data);
  // No segment may exceed the MTU: verified implicitly (SimNic rejects oversize), and multiple
  // segments must have been used.
  EXPECT_GE(client->conn_stats().segments_sent, 10000u / 1460u);
}

TEST_F(TcpCleanTest, ConnectionRefusedWithoutListener) {
  auto client = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), 12345});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(RunUntil([&] { return (*client)->state() == TcpState::kClosed; }));
  EXPECT_EQ((*client)->error(), Status::kConnectionRefused);
  EXPECT_EQ(b_.tcp.stats().rst_sent, 1u);
}

TEST_F(TcpCleanTest, GracefulCloseBothSides) {
  auto [client, server] = EstablishPair();
  Transfer(client, server, "bye");
  EXPECT_EQ(client->Close(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] { return server->EndOfStream(); }));
  EXPECT_EQ(server->state(), TcpState::kCloseWait);
  EXPECT_EQ(server->Close(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] {
    return server->state() == TcpState::kClosed && client->state() == TcpState::kClosed;
  }));
  EXPECT_EQ(client->error(), Status::kOk);
  EXPECT_EQ(server->error(), Status::kOk);
}

TEST_F(TcpCleanTest, DataBeforeFinIsDelivered) {
  auto [client, server] = EstablishPair();
  void* app = a_.alloc.Alloc(2048);
  std::memset(app, 'd', 2048);
  Buffer buf = Buffer::FromApp(a_.alloc, app, 2048);
  ASSERT_EQ(client->Push(std::move(buf)), Status::kOk);
  ASSERT_EQ(client->Close(), Status::kOk);  // FIN queued right behind the data
  std::string received;
  ASSERT_TRUE(RunUntil([&] {
    while (auto chunk = server->PopData()) {
      received.append(reinterpret_cast<const char*>(chunk->data()), chunk->size());
    }
    return server->EndOfStream();
  }));
  EXPECT_EQ(received.size(), 2048u);
  a_.alloc.Free(app);
}

TEST_F(TcpCleanTest, PushAfterCloseRejected) {
  auto [client, server] = EstablishPair();
  ASSERT_EQ(client->Close(), Status::kOk);
  Buffer b = Buffer::Allocate(a_.alloc, 16);
  std::memset(b.mutable_data(), 0, 16);
  EXPECT_EQ(client->Push(std::move(b)), Status::kInvalidArgument);
}

TEST_F(TcpCleanTest, AbortSendsRst) {
  auto [client, server] = EstablishPair();
  client->Abort();
  ASSERT_TRUE(RunUntil([&] { return server->state() == TcpState::kClosed; }));
  EXPECT_EQ(server->error(), Status::kConnectionReset);
}

TEST_F(TcpCleanTest, ListenerBacklogBounded) {
  auto listener = b_.tcp.Listen(80, 2);
  ASSERT_TRUE(listener.ok());
  std::vector<std::shared_ptr<TcpConnection>> clients;
  for (int i = 0; i < 5; i++) {
    auto c = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), 80});
    ASSERT_TRUE(c.ok());
    clients.push_back(*c);
  }
  RunUntil([&] { return false; }, 3000);  // let the dust settle
  size_t established = 0;
  for (auto& c : clients) {
    if (c->state() == TcpState::kEstablished) {
      established++;
    }
  }
  EXPECT_LE(established, 2u);
}

TEST_F(TcpCleanTest, UafProtectionHoldsUnackedBuffers) {
  // The marquee zero-copy scenario (§5.3): app pushes, immediately frees; memory must survive
  // until the data is acked, then recycle cleanly.
  auto [client, server] = EstablishPair();
  void* app = a_.alloc.Alloc(4096);
  std::memset(app, 0x77, 4096);
  Buffer buf = Buffer::FromApp(a_.alloc, app, 4096);
  ASSERT_EQ(client->Push(std::move(buf)), Status::kOk);
  a_.alloc.Free(app);  // app frees immediately after push — the Redis pattern
  EXPECT_GE(a_.alloc.GetStats().deferred_frees, 1u);

  std::string received;
  ASSERT_TRUE(RunUntil([&] {
    while (auto chunk = server->PopData()) {
      received.append(reinterpret_cast<const char*>(chunk->data()), chunk->size());
    }
    return received.size() == 4096;
  }));
  for (char c : received) {
    ASSERT_EQ(static_cast<uint8_t>(c), 0x77);
  }
  // Once acked, all libOS refs drop and the deferred free completes.
  ASSERT_TRUE(RunUntil([&] { return a_.alloc.GetStats().deferred_frees == 0; }));
}

TEST_F(TcpCleanTest, ReapDestroysClosedReleasedConnections) {
  auto [client, server] = EstablishPair();
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
}

// --- TCP under adverse networks ---

class TcpLossyTest : public NetPairTest {
 protected:
  TcpLossyTest()
      : NetPairTest(LinkConfig{.loss = 0.05}, /*seed=*/1234) {}
};

TEST_F(TcpLossyTest, HandshakeSurvivesLoss) {
  auto [client, server] = EstablishPair();
  EXPECT_EQ(client->state(), TcpState::kEstablished);
}

TEST_F(TcpLossyTest, RetransmissionRecoversData) {
  auto [client, server] = EstablishPair();
  std::string data(64 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(i % 251);
  }
  EXPECT_EQ(Transfer(client, server, data), data);
  EXPECT_GT(client->conn_stats().retransmits + client->conn_stats().fast_retransmits, 0u);
}

class TcpReorderTest : public NetPairTest {
 protected:
  TcpReorderTest()
      : NetPairTest(LinkConfig{.reorder = 0.2, .reorder_extra = 30 * kMicrosecond},
                    /*seed=*/77) {}
};

TEST_F(TcpReorderTest, ReassemblyRestoresOrder) {
  auto [client, server] = EstablishPair();
  std::string data(128 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>((i / 3) % 256);
  }
  EXPECT_EQ(Transfer(client, server, data), data);
  EXPECT_GT(server->conn_stats().out_of_order, 0u);
}

class TcpDuplicateTest : public NetPairTest {
 protected:
  TcpDuplicateTest() : NetPairTest(LinkConfig{.duplicate = 0.1}, /*seed=*/5) {}
};

TEST_F(TcpDuplicateTest, DuplicatesAreDiscarded) {
  auto [client, server] = EstablishPair();
  std::string data(32 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(255 - (i % 256));
  }
  EXPECT_EQ(Transfer(client, server, data), data);
}

// Property sweep: integrity across loss rates (parameterized per the repro instructions).
class TcpLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossSweep, DataIntegrityUnderLoss) {
  const double loss = GetParam();
  VirtualClock clock;
  SimNetwork net(LinkConfig{.loss = loss}, /*seed=*/static_cast<uint64_t>(loss * 1000) + 3);
  Host a(net, clock, MacAddr{0xA1}, Ipv4Addr::FromOctets(10, 1, 0, 1));
  Host b(net, clock, MacAddr{0xB1}, Ipv4Addr::FromOctets(10, 1, 0, 2));
  a.eth.arp().Insert(b.eth.local_ip(), MacAddr{0xB1});
  b.eth.arp().Insert(a.eth.local_ip(), MacAddr{0xA1});

  auto step = [&] {
    const TimeNs now = clock.Now();
    const size_t activity = a.eth.PollOnce(now) + b.eth.PollOnce(now);
    a.sched.Poll();
    b.sched.Poll();
    if (activity == 0) {
      TimeNs next = 0;
      for (TimeNs t : {net.NextDeliveryTime(), a.sched.timer_wheel().NextDeadline(),
                       b.sched.timer_wheel().NextDeadline()}) {
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
  };

  auto listener = b.tcp.Listen(99, 8);
  ASSERT_TRUE(listener.ok());
  auto client = a.tcp.Connect(SocketAddress{b.eth.local_ip(), 99});
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 300000 && !(*listener)->HasPending(); i++) {
    step();
  }
  ASSERT_TRUE((*listener)->HasPending()) << "handshake failed at loss=" << loss;
  auto server = (*listener)->Accept();

  std::string data(40 * 1024, 0);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(i * 31 % 256);
  }
  void* app = a.alloc.Alloc(data.size());
  std::memcpy(app, data.data(), data.size());
  ASSERT_EQ((*client)->Push(Buffer::FromApp(a.alloc, app, data.size())), Status::kOk);

  std::string received;
  for (int i = 0; i < 600000 && received.size() < data.size(); i++) {
    step();
    while (auto chunk = server->PopData()) {
      received.append(reinterpret_cast<const char*>(chunk->data()), chunk->size());
    }
  }
  EXPECT_EQ(received, data) << "corruption or stall at loss=" << loss;
  a.alloc.Free(app);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep, ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.2));

// --- Determinism: identical seeds and virtual time must give identical protocol behaviour ---

TEST(TcpDeterminismTest, IdenticalRunsProduceIdenticalStats) {
  auto run = [](uint64_t seed) -> std::pair<uint64_t, uint64_t> {
    VirtualClock clock;
    SimNetwork net(LinkConfig{.loss = 0.08}, seed);
    Host a(net, clock, MacAddr{0xA2}, Ipv4Addr::FromOctets(10, 2, 0, 1));
    Host b(net, clock, MacAddr{0xB2}, Ipv4Addr::FromOctets(10, 2, 0, 2));
    a.eth.arp().Insert(b.eth.local_ip(), MacAddr{0xB2});
    b.eth.arp().Insert(a.eth.local_ip(), MacAddr{0xA2});
    auto listener = b.tcp.Listen(5, 4);
    auto client = a.tcp.Connect(SocketAddress{b.eth.local_ip(), 5});
    auto step = [&] {
      const TimeNs now = clock.Now();
      const size_t activity = a.eth.PollOnce(now) + b.eth.PollOnce(now);
      a.sched.Poll();
      b.sched.Poll();
      if (activity == 0) {
        TimeNs next = 0;
        for (TimeNs t : {net.NextDeliveryTime(), a.sched.timer_wheel().NextDeadline(),
                         b.sched.timer_wheel().NextDeadline()}) {
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
    };
    for (int i = 0; i < 200000 && !(*listener)->HasPending(); i++) {
      step();
    }
    auto server = (*listener)->Accept();
    std::string data(120000, 'd');
    void* app = a.alloc.Alloc(data.size());
    std::memcpy(app, data.data(), data.size());
    EXPECT_EQ((*client)->Push(Buffer::FromApp(a.alloc, app, data.size())), Status::kOk);
    size_t got = 0;
    for (int i = 0; i < 400000 && got < data.size(); i++) {
      step();
      while (auto c = server->PopData()) {
        got += c->size();
      }
    }
    a.alloc.Free(app);
    return {(*client)->conn_stats().segments_sent,
            (*client)->conn_stats().retransmits + (*client)->conn_stats().fast_retransmits};
  };
  auto r1 = run(42);
  auto r2 = run(42);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1.second, 0u);  // the scenario actually exercised retransmission
}

}  // namespace
}  // namespace demi
