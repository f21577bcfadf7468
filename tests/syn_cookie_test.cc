// SYN-cookie tests (docs/SCALING.md §2): stateless SYN handling, deferred TCB allocation,
// cookie encode/decode properties, and the no-RST policy for backlog-pressured valid cookies.
//
// Stack-pair tests run two full stacks in deterministic stepped mode on a VirtualClock, same
// harness as tcp_advanced_test. Crafted-segment tests drive the server's OnIpv4Packet directly.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/common/clock.h"
#include "src/net/tcp/syn_cookies.h"
#include "src/net/tcp/tcp.h"
#include "src/netsim/sim_network.h"

namespace demi {
namespace {

// --- SynCookies unit tests --------------------------------------------------------

TEST(SynCookiesTest, RoundTripRecoversOptions) {
  SynCookies cookies(0x1234567890ABCDEFULL);
  const uint64_t key = FlowTable::MakeKey(0x0A000002, 41000, 7000);
  const uint32_t client_iss = 0xCAFEBABE;
  const TimeNs now = 5 * kSecond;
  for (const uint32_t mss : SynCookies::kMssTable) {
    for (const uint8_t wscale : {uint8_t{0}, uint8_t{7}, SynCookies::kNoWscale}) {
      for (const bool ts : {false, true}) {
        SynCookies::SynOptions opts{mss, wscale, ts};
        const uint32_t cookie = cookies.Encode(key, client_iss, opts, now);
        const auto decoded = cookies.Decode(key, client_iss, cookie, now);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->mss, mss);
        EXPECT_EQ(decoded->peer_wscale, wscale);
        EXPECT_EQ(decoded->timestamps, ts);
      }
    }
  }
}

TEST(SynCookiesTest, RejectsWrongTupleWrongIssAndTampering) {
  SynCookies cookies(42);
  const uint64_t key = FlowTable::MakeKey(0x0A000002, 41000, 7000);
  const TimeNs now = kSecond;
  const uint32_t cookie = cookies.Encode(key, 1000, {1460, 7, true}, now);
  EXPECT_TRUE(cookies.Decode(key, 1000, cookie, now).has_value());
  // Different 4-tuple (an attacker replaying a sniffed cookie from another flow).
  EXPECT_FALSE(cookies.Decode(key + 1, 1000, cookie, now).has_value());
  // Different client ISS.
  EXPECT_FALSE(cookies.Decode(key, 1001, cookie, now).has_value());
  // Tampered options byte (trying to inflate the MSS): hash covers it.
  EXPECT_FALSE(cookies.Decode(key, 1000, cookie ^ 0x7, now).has_value());
  // A different secret never validates another stack's cookies.
  SynCookies other(43);
  EXPECT_FALSE(other.Decode(key, 1000, cookie, now).has_value());
}

TEST(SynCookiesTest, ExpiresAfterTwoTimeBuckets) {
  SynCookies cookies(7);
  const uint64_t key = FlowTable::MakeKey(1, 2, 3);
  constexpr TimeNs kBucket = TimeNs{1} << 33;  // ~8.6 s
  const TimeNs t0 = 10 * kBucket + 12345;
  const uint32_t cookie = cookies.Encode(key, 99, {1460, SynCookies::kNoWscale, false}, t0);
  // Valid in its own bucket and the next (the peer gets 8.6-17.2 s to complete).
  EXPECT_TRUE(cookies.Decode(key, 99, cookie, t0).has_value());
  EXPECT_TRUE(cookies.Decode(key, 99, cookie, t0 + kBucket).has_value());
  // Two buckets on, it is dead even though the low bucket bits recur every 4 buckets.
  EXPECT_FALSE(cookies.Decode(key, 99, cookie, t0 + 2 * kBucket).has_value());
  EXPECT_FALSE(cookies.Decode(key, 99, cookie, t0 + 4 * kBucket).has_value());
}

TEST(SynCookiesTest, RoundMssPicksLargestTableEntryNotAbove) {
  EXPECT_EQ(SynCookies::RoundMss(100), 536u);   // below the table floors to the smallest
  EXPECT_EQ(SynCookies::RoundMss(536), 536u);
  EXPECT_EQ(SynCookies::RoundMss(1459), 1440u);
  EXPECT_EQ(SynCookies::RoundMss(1460), 1460u);
  EXPECT_EQ(SynCookies::RoundMss(9000), 8940u);
}

// --- Full-stack tests -------------------------------------------------------------

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

class SynCookieStackTest : public ::testing::Test {
 protected:
  static TcpConfig ServerCfg() {
    TcpConfig cfg;
    cfg.syn_cookies = true;
    return cfg;
  }

  SynCookieStackTest()
      : net_(LinkConfig{}, 23),
        client_(net_, clock_, MacAddr{0xA}, Ipv4Addr::FromOctets(10, 9, 0, 1), TcpConfig{}),
        server_(net_, clock_, MacAddr{0xB}, Ipv4Addr::FromOctets(10, 9, 0, 2), ServerCfg()) {
    client_.eth.arp().Insert(server_.eth.local_ip(), MacAddr{0xB});
    server_.eth.arp().Insert(client_.eth.local_ip(), MacAddr{0xA});
  }

  void Step() {
    const TimeNs now = clock_.Now();
    const size_t activity = client_.eth.PollOnce(now) + server_.eth.PollOnce(now);
    client_.sched.Poll();
    server_.sched.Poll();
    if (activity > 0) {
      return;
    }
    TimeNs next = 0;
    for (TimeNs t : {net_.NextDeliveryTime(), client_.sched.timer_wheel().NextDeadline(),
                     server_.sched.timer_wheel().NextDeadline()}) {
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
  Host client_;
  Host server_;
};

TEST_F(SynCookieStackTest, CookieHandshakeEstablishesHotOnlyThenTransfersData) {
  auto listener = server_.tcp.Listen(7000, 16);
  ASSERT_TRUE(listener.ok());
  auto client = client_.tcp.Connect(SocketAddress{server_.eth.local_ip(), 7000});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(RunUntil([&] {
    return (*client)->state() == TcpState::kEstablished && (*listener)->HasPending();
  }));

  // The handshake was stateless: one cookie SYN-ACK out, one cookie validated, and the
  // accepted connection has not allocated its cold half (queues, congestion state).
  EXPECT_EQ(server_.tcp.stats().syn_cookies_sent, 1u);
  EXPECT_EQ(server_.tcp.stats().syn_cookies_validated, 1u);
  auto server_conn = (*listener)->Accept();
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->state(), TcpState::kEstablished);
  EXPECT_TRUE(server_conn->IsHotOnly());

  // Options negotiated through the cookie: both sides agreed on timestamps and scaling.
  EXPECT_TRUE(server_conn->timestamps_enabled());
  EXPECT_TRUE((*client)->timestamps_enabled());

  // Data flows both ways; the cold half materializes on first data.
  PushString(client_, *client, "ping from client");
  EXPECT_EQ(DrainString(server_conn, 16), "ping from client");
  EXPECT_FALSE(server_conn->IsHotOnly());
  PushString(server_, server_conn, "pong from server");
  EXPECT_EQ(DrainString(*client, 16), "pong from server");

  // And the connection closes cleanly from the cookie-born side.
  ASSERT_EQ(server_conn->Close(), Status::kOk);
  ASSERT_EQ((*client)->Close(), Status::kOk);
  EXPECT_TRUE(RunUntil([&] {
    return (*client)->state() == TcpState::kClosed &&
           server_conn->state() == TcpState::kClosed;
  }));
}

TEST_F(SynCookieStackTest, ValidCookieOverFullAcceptQueueIsDroppedWithoutRst) {
  auto listener = server_.tcp.Listen(7000, /*backlog=*/1);
  ASSERT_TRUE(listener.ok());
  auto c1 = client_.tcp.Connect(SocketAddress{server_.eth.local_ip(), 7000});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(RunUntil([&] { return (*listener)->HasPending(); }));

  // Accept queue now holds one un-accepted connection; a second valid handshake must be
  // dropped silently — a RST would make the client give up, whereas its retransmitted ACK
  // can succeed once the application accepts.
  auto c2 = client_.tcp.Connect(SocketAddress{server_.eth.local_ip(), 7000});
  ASSERT_TRUE(c2.ok());
  RunUntil([&] { return server_.tcp.stats().syn_cookies_sent >= 2; });
  for (int i = 0; i < 2000; i++) {
    Step();
  }
  EXPECT_EQ(server_.tcp.stats().syn_cookies_validated, 1u);
  EXPECT_EQ(server_.tcp.NumConnections(), 1u);
  EXPECT_EQ(server_.tcp.stats().rst_sent, 0u);
}

TEST_F(SynCookieStackTest, BogusAckToListenerPortIsRefusedWithRst) {
  auto listener = server_.tcp.Listen(7000, 16);
  ASSERT_TRUE(listener.ok());

  // Craft a bare ACK that matches no connection and carries no valid cookie.
  TcpHeader ack;
  ack.src_port = 41000;
  ack.dst_port = 7000;
  ack.seq = 1111;
  ack.ack = 2222;
  ack.flags.ack = true;
  ack.window = 1024;
  Ipv4Header ip;
  ip.src = client_.eth.local_ip();
  ip.dst = server_.eth.local_ip();
  ip.protocol = IpProto::kTcp;
  uint8_t bytes[TcpHeader::kBaseSize + TcpHeader::kMaxOptionBytes];
  ack.Serialize(bytes, ip.src, ip.dst, std::span<const uint8_t>{}, /*compute_checksum=*/false);
  server_.tcp.OnIpv4Packet(ip, {bytes, ack.SerializedSize()}, clock_.Now());

  EXPECT_EQ(server_.tcp.stats().no_connection, 1u);
  EXPECT_EQ(server_.tcp.stats().rst_sent, 1u);
  EXPECT_EQ(server_.tcp.stats().syn_cookies_validated, 0u);
  EXPECT_EQ(server_.tcp.NumConnections(), 0u);
}

TEST_F(SynCookieStackTest, HalfOpenFloodAllocatesNothing) {
  auto listener = server_.tcp.Listen(7000, 16);
  ASSERT_TRUE(listener.ok());
  const size_t slab_before = server_.tcp.tcb_slab().ReservedBytes();

  // 10k SYNs from distinct (ip, port) tuples, none completing the handshake.
  Ipv4Header ip;
  ip.dst = server_.eth.local_ip();
  ip.protocol = IpProto::kTcp;
  for (uint32_t i = 0; i < 10'000; i++) {
    TcpHeader syn;
    syn.src_port = static_cast<uint16_t>(10'000 + (i & 0x3FFF));
    syn.dst_port = 7000;
    syn.seq = 77 + i;
    syn.flags.syn = true;
    syn.window = 65535;
    syn.mss_option = 1460;
    ip.src = Ipv4Addr{0x0B000000 | (i >> 14 << 8) | (i & 0xFF)};
    uint8_t bytes[TcpHeader::kBaseSize + TcpHeader::kMaxOptionBytes];
    syn.Serialize(bytes, ip.src, ip.dst, std::span<const uint8_t>{}, /*compute_checksum=*/false);
    server_.tcp.OnIpv4Packet(ip, {bytes, syn.SerializedSize()}, clock_.Now());
  }

  // Every SYN was answered statelessly; no TCB, no flow-table entry, no slab growth.
  EXPECT_EQ(server_.tcp.stats().syn_cookies_sent, 10'000u);
  EXPECT_EQ(server_.tcp.NumConnections(), 0u);
  EXPECT_EQ(server_.tcp.tcb_slab().live(), 0u);
  EXPECT_EQ(server_.tcp.tcb_slab().ReservedBytes(), slab_before);
  EXPECT_FALSE((*listener)->HasPending());
}

}  // namespace
}  // namespace demi
