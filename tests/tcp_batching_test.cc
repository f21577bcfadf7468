// Batched-datapath and ack-policy tests: MSS coalescing (zero-copy gather), RFC 1122 delayed
// acks, immediate acks on out-of-order arrivals, and the Karn's-algorithm fix for RTT samples
// taken from cumulative acks that cover a retransmitted segment.
//
// All tests run two full stacks in deterministic stepped mode on a shared VirtualClock,
// mirroring tcp_advanced_test; this fixture additionally exposes the EthernetLayer knobs
// (software checksums, RX burst size) so multi-slice gather TX is checksummed end to end.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/faults/fault_injector.h"
#include "src/net/tcp/tcp.h"
#include "src/netsim/sim_network.h"

namespace demi {
namespace {

struct Host {
  Host(SimNetwork& net, VirtualClock& clock, MacAddr mac, Ipv4Addr ip, TcpConfig cfg,
       bool checksum_offload, size_t rx_burst)
      : nic(net, mac, clock),
        alloc(nic.registrar()),
        sched(clock),
        eth(nic, ip, checksum_offload, rx_burst),
        tcp(eth, sched, alloc, clock, cfg) {}

  SimNic nic;
  PoolAllocator alloc;
  Scheduler sched;
  EthernetLayer eth;
  TcpStack tcp;
};

class TcpBatchingTest : public ::testing::Test {
 protected:
  explicit TcpBatchingTest(LinkConfig link = LinkConfig{}, TcpConfig a_cfg = TcpConfig{},
                           TcpConfig b_cfg = TcpConfig{}, bool checksum_offload = false,
                           size_t rx_burst = EthernetLayer::kDefaultRxBurst)
      : net_(link, 11),
        a_(net_, clock_, MacAddr{0xA}, Ipv4Addr::FromOctets(10, 2, 2, 1), a_cfg,
           checksum_offload, rx_burst),
        b_(net_, clock_, MacAddr{0xB}, Ipv4Addr::FromOctets(10, 2, 2, 2), b_cfg,
           checksum_offload, rx_burst) {
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
  bool RunUntil(Pred&& pred, int max_steps = 400000) {
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

  // Drops every frame transmitted while the returned guard is live: arms a link flap that
  // reopens on each frame (probability 1), so the triggering frame itself is swallowed.
  void StartDroppingFrames() {
    FaultPlan p;
    p.seed = 1;
    p.net_link_flap = 1.0;
    p.net_link_down_ns = 1;
    dropper_.Arm(p);
    net_.SetFaultInjector(&dropper_);
  }
  void StopDroppingFrames() { net_.SetFaultInjector(nullptr); }

  VirtualClock clock_;
  SimNetwork net_;
  FaultInjector dropper_;
  Host a_;
  Host b_;
};

// --- MSS coalescing ---

TEST_F(TcpBatchingTest, CoalescesSubMssPushesIntoFewerSegments) {
  auto [client, server] = EstablishPair();
  // Push transmits inline run-to-completion while the window is open (single-push latency is
  // sacred), so coalescing engages on backlog: fill the congestion window first, then queue a
  // burst of small pushes behind it. As acks open the window, the queued views must leave as
  // gathered multi-slice segments, not one wire segment per Push.
  std::string expected(client->cwnd(), 'F');
  PushString(a_, client, expected);
  const uint64_t segments_for_filler = client->conn_stats().segments_sent;
  for (int i = 0; i < 12; i++) {
    const std::string msg(100, static_cast<char>('a' + i));
    PushString(a_, client, msg);
    expected += msg;
  }
  EXPECT_EQ(DrainString(server, expected.size()), expected);
  EXPECT_GT(client->conn_stats().coalesced_segments, 0u);
  // 12 queued sub-MSS pushes (1200 B, under one MSS) must not cost 12 extra data segments.
  EXPECT_LT(client->conn_stats().segments_sent, segments_for_filler + 12);
}

TEST_F(TcpBatchingTest, CoalescingOffSendsOneSegmentPerPush) {
  TcpConfig off;
  off.coalesce_segments = false;
  auto listener = b_.tcp.Listen(5001, 4);
  ASSERT_TRUE(listener.ok());
  // The fixture's a_ uses the default (coalescing) config, so drive the ablation from a fresh
  // host on the same fabric.
  Host c(net_, clock_, MacAddr{0xC}, Ipv4Addr::FromOctets(10, 2, 2, 3), off,
         /*checksum_offload=*/false, EthernetLayer::kDefaultRxBurst);
  c.eth.arp().Insert(b_.eth.local_ip(), MacAddr{0xB});
  b_.eth.arp().Insert(c.eth.local_ip(), MacAddr{0xC});
  auto client = c.tcp.Connect(SocketAddress{b_.eth.local_ip(), 5001});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(RunUntil([&] {
    c.eth.PollOnce(clock_.Now());
    c.sched.Poll();
    return (*client)->state() == TcpState::kEstablished && (*listener)->HasPending();
  }));
  auto server = (*listener)->Accept();
  std::string expected;
  for (int i = 0; i < 6; i++) {
    const std::string msg(50, static_cast<char>('p' + i));
    void* app = c.alloc.Alloc(msg.size());
    std::memcpy(app, msg.data(), msg.size());
    ASSERT_EQ((*client)->Push(Buffer::FromApp(c.alloc, app, msg.size())), Status::kOk);
    c.alloc.Free(app);
    expected += msg;
  }
  std::string got;
  RunUntil([&] {
    c.eth.PollOnce(clock_.Now());
    c.sched.Poll();
    while (auto chunk = server->PopData()) {
      got.append(reinterpret_cast<const char*>(chunk->data()), chunk->size());
    }
    return got.size() >= expected.size();
  });
  EXPECT_EQ(got, expected);
  EXPECT_EQ((*client)->conn_stats().coalesced_segments, 0u);
  EXPECT_GE((*client)->conn_stats().segments_sent, 6u);
}

// Byte-exactness of gathered multi-slice segments under a lossy link, with software checksums
// verifying every slice boundary. Retransmissions re-gather the same slices (possibly trimmed
// by partial acks), so this exercises SegmentPayload::TrimFront and the multi-slice checksum.
TEST(TcpBatchingLossTest, CoalescingByteExactUnderLoss) {
  class Fixture : public TcpBatchingTest {
   public:
    Fixture() : TcpBatchingTest(LossyLink()) {}
    void TestBody() override {}  // instantiated directly, not through the gtest registry
    static LinkConfig LossyLink() {
      LinkConfig l;
      l.loss = 0.05;  // seeded: deterministic drop pattern
      return l;
    }
    void Run() {
      auto [client, server] = EstablishPair();
      std::string expected;
      Rng rng(42);
      // Enough bytes to overrun the initial congestion window several times over, so a
      // backlog forms and segments genuinely coalesce across Push boundaries.
      for (int i = 0; i < 400; i++) {
        std::string msg(1 + rng.NextBounded(300), '\0');
        for (char& ch : msg) {
          ch = static_cast<char>('a' + rng.NextBounded(26));
        }
        PushString(a_, client, msg);
        expected += msg;
      }
      EXPECT_EQ(DrainString(server, expected.size()), expected);
      EXPECT_GT(client->conn_stats().coalesced_segments, 0u);
      EXPECT_GT(client->conn_stats().retransmits + client->conn_stats().fast_retransmits, 0u)
          << "lossy link should have forced at least one retransmission";
    }
  };
  Fixture().Run();
}

// --- Delayed acks (RFC 1122) ---

TEST_F(TcpBatchingTest, DelayedAckFiresAtConfiguredCap) {
  auto [client, server] = EstablishPair();
  // One sub-MSS segment with nothing to piggyback on: the receiver must hold the ack until the
  // delayed-ack timer fires, then send it (counted in delayed_acks).
  PushString(a_, client, "small");
  ASSERT_TRUE(RunUntil([&] { return server->conn_stats().bytes_received >= 5; }));
  const TimeNs delivered_at = clock_.Now();
  ASSERT_TRUE(RunUntil([&] { return client->BytesInFlight() == 0; }));
  const DurationNs ack_wait = clock_.Now() - delivered_at;
  const DurationNs cap = kTcpDelayedAckTimeout;
  EXPECT_GE(ack_wait, cap / 2) << "ack left before the delay timer";
  EXPECT_LE(ack_wait, 4 * cap) << "ack took far longer than the delay cap";
  EXPECT_GE(server->conn_stats().delayed_acks, 1u);
}

TEST_F(TcpBatchingTest, AckEveryNthFullSegmentIsImmediate) {
  auto [client, server] = EstablishPair();
  // Exactly two full-MSS segments in order: the second must trigger an immediate ack
  // (kTcpAckEverySegments = 2) covering both, rather than waiting out the delay timer.
  const size_t bytes = 2 * client->effective_mss();
  PushString(a_, client, std::string(bytes, 'x'));
  ASSERT_TRUE(RunUntil([&] { return server->conn_stats().bytes_received >= bytes; }));
  const TimeNs delivered_at = clock_.Now();
  ASSERT_TRUE(RunUntil([&] { return client->BytesInFlight() == 0; }));
  EXPECT_LT(clock_.Now() - delivered_at, kTcpDelayedAckTimeout / 2)
      << "segment-count ack should not have waited for the delay timer";
  (void)DrainString(server, bytes);
}

TEST_F(TcpBatchingTest, OutOfOrderSegmentAcksImmediately) {
  auto [client, server] = EstablishPair();
  // Warm up so both sides are quiescent.
  PushString(a_, client, "warm");
  EXPECT_EQ(DrainString(server, 4), "warm");
  ASSERT_TRUE(RunUntil([&] { return client->BytesInFlight() == 0; }));

  // seg1 vanishes on the wire; seg2 arrives out of order. The receiver must dup-ack right
  // away (driving fast retransmit at the sender), not hold the ack on the delay timer.
  const uint64_t segs_base = client->conn_stats().segments_sent;
  StartDroppingFrames();
  PushString(a_, client, "lost-segment-one");
  for (int i = 0; i < 16 && client->conn_stats().segments_sent == segs_base; i++) {
    a_.sched.Poll();
  }
  StopDroppingFrames();
  EXPECT_GT(dropper_.GetStats().frames_dropped, 0u) << "seg1 was not actually dropped";

  PushString(a_, client, "arrives-out-of-order");
  const TimeNs sent_at = clock_.Now();
  ASSERT_TRUE(RunUntil([&] { return server->conn_stats().out_of_order > 0; }));
  ASSERT_TRUE(RunUntil([&] { return client->conn_stats().dup_acks_seen > 0; }));
  EXPECT_LT(clock_.Now() - sent_at, kTcpDelayedAckTimeout)
      << "out-of-order dup-ack was delayed";
  // The stream still completes byte-exactly once the hole is retransmitted.
  EXPECT_EQ(DrainString(server, 36), "lost-segment-one" "arrives-out-of-order");
}

// --- Karn's algorithm (RFC 6298 §3) ---

// A cumulative ack that covers a retransmitted segment plus a later clean segment must take NO
// timer-based RTT sample: the clean segment sat in the peer's reassembly queue until the
// retransmission released it, so its elapsed time measures the RTO, not the path. Pre-fix, the
// per-segment `retransmitted` guard let the clean segment contribute a sample ~RTO large,
// inflating srtt by three orders of magnitude.
TEST(TcpKarnTest, CumulativeAckOverRetransmitTakesNoRttSample) {
  class Fixture : public TcpBatchingTest {
   public:
    Fixture() : TcpBatchingTest(LinkConfig{}, NoTimestamps(), NoTimestamps()) {}
    void TestBody() override {}  // instantiated directly, not through the gtest registry
    static TcpConfig NoTimestamps() {
      TcpConfig c;
      c.timestamps = false;    // timestamp RTTM is retransmission-safe; force timer sampling
      c.delayed_acks = false;  // keep acks prompt so srtt tracks the path, not the ack delay
      return c;
    }
    void Run() {
      auto [client, server] = EstablishPair();
      // Seed srtt with a clean exchange: a few µs on this fabric.
      PushString(a_, client, "warmup");
      EXPECT_EQ(DrainString(server, 6), "warmup");
      ASSERT_TRUE(RunUntil([&] { return client->BytesInFlight() == 0; }));
      const DurationNs srtt_before = client->rtt_estimator().srtt();
      ASSERT_GT(srtt_before, 0u);
      ASSERT_LT(srtt_before, 100 * kMicrosecond);

      // seg1 is lost; seg2 arrives and waits in reassembly.
      const uint64_t segs_base = client->conn_stats().segments_sent;
      StartDroppingFrames();
      PushString(a_, client, "first-goes-missing");
      for (int i = 0; i < 16 && client->conn_stats().segments_sent == segs_base; i++) {
        a_.sched.Poll();
      }
      StopDroppingFrames();
      ASSERT_GT(dropper_.GetStats().frames_dropped, 0u);
      PushString(a_, client, "second-arrives-clean");

      // The RTO (~10 ms initial) eventually retransmits seg1; the cumulative ack then covers
      // both segments at once.
      ASSERT_TRUE(RunUntil([&] {
        return client->conn_stats().retransmits + client->conn_stats().fast_retransmits > 0;
      }));
      ASSERT_TRUE(RunUntil([&] { return client->BytesInFlight() == 0; }));
      EXPECT_EQ(DrainString(server, 38), "first-goes-missing" "second-arrives-clean");

      // Karn: srtt must not absorb an RTO-sized sample from the ambiguous cumulative ack.
      // Post-fix srtt stays at the path RTT (~2 µs here); pre-fix the ambiguous sample is
      // RTO-sized (>= min_rto = 1 ms) and srtt jumps two orders of magnitude (~127 µs after
      // one EWMA step).
      const DurationNs srtt_after = client->rtt_estimator().srtt();
      EXPECT_LT(srtt_after, 50 * kMicrosecond)
          << "srtt jumped from " << srtt_before << "ns to " << srtt_after
          << "ns: the cumulative ack over a retransmitted segment was sampled";
    }
  };
  Fixture().Run();
}

// --- One timer per connection ---
//
// A connection keeps its retransmit, ack and state deadlines as plain fields behind one wheel
// entry armed at or before the earliest of them. When it fires it handles every due deadline
// once, retransmit first, then the ack, then the state timer; a deadline that moves earlier
// than the entry re-arms it. (Every state-timer kind implies nothing in flight, so a
// retransmit and a state deadline are never pending together; each test pairs two that can.)

// A retransmit and a delayed ack due in one poll: the retransmission carries the ack, so one
// segment goes out and no pure ack follows it.
TEST_F(TcpBatchingTest, RetransmitAndDelayedAckDueInOnePollSendOneSegment) {
  auto [client, server] = EstablishPair();
  StartDroppingFrames();
  const TimeNs t0 = clock_.Now();
  const DurationNs rto = client->rtt_estimator().rto();
  PushString(a_, client, "lost");  // inline push; the frame is dropped
  StopDroppingFrames();
  PushString(b_, server, "reply");  // reaches the client, which holds its ack 500 us
  ASSERT_TRUE(RunUntil([&] { return client->conn_stats().bytes_received >= 5; }));
  ASSERT_LT(clock_.Now() + kTcpDelayedAckTimeout, t0 + rto);
  ASSERT_EQ(client->conn_stats().retransmits, 0u);

  const uint64_t tx_before = a_.tcp.stats().segments_tx;
  clock_.SetTime(t0 + rto);  // the RTO, with the ack long due
  a_.sched.Poll();
  EXPECT_EQ(client->conn_stats().retransmits, 1u);
  EXPECT_EQ(a_.tcp.stats().segments_tx - tx_before, 1u) << "the ack went out on its own";
  EXPECT_EQ(client->conn_stats().delayed_acks, 0u);
  EXPECT_EQ(DrainString(server, 4), "lost");
  EXPECT_EQ(DrainString(client, 5), "reply");
}

// A delayed ack and the TIME_WAIT expiry due in one poll: the ack goes out once, then the
// connection closes once. The ack answers the peer's retransmitted FIN; closing first would
// drop it.
TEST_F(TcpBatchingTest, DelayedAckAndTimeWaitDueInOnePollAckThenClose) {
  auto [client, server] = EstablishPair();
  PushString(b_, server, "rtt");  // an RTT sample: the server's FIN retransmits in ~1.5 ms
  EXPECT_EQ(DrainString(client, 3), "rtt");
  ASSERT_TRUE(RunUntil([&] { return server->BytesInFlight() == 0; }));
  ASSERT_EQ(client->Close(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] { return client->state() == TcpState::kFinWait2; }));
  ASSERT_EQ(server->Close(), Status::kOk);  // the FIN is on the wire before the drops start
  StartDroppingFrames();
  ASSERT_TRUE(RunUntil([&] { return client->state() == TcpState::kTimeWait; }));
  const TimeNs time_wait_at = clock_.Now();  // the client's last ack was dropped
  StopDroppingFrames();
  const uint64_t rx_before = client->conn_stats().segments_received;
  ASSERT_TRUE(RunUntil([&] { return client->conn_stats().segments_received > rx_before; }));
  ASSERT_EQ(client->state(), TcpState::kTimeWait);  // the FIN again: an ack is held 500 us
  ASSERT_LT(clock_.Now() + kTcpDelayedAckTimeout, time_wait_at + kTcpTimeWait);

  const uint64_t tx_before = a_.tcp.stats().segments_tx;
  const uint64_t delayed_before = client->conn_stats().delayed_acks;
  clock_.SetTime(time_wait_at + kTcpTimeWait);
  a_.sched.Poll();
  EXPECT_EQ(a_.tcp.stats().segments_tx - tx_before, 1u);
  EXPECT_EQ(client->conn_stats().delayed_acks - delayed_before, 1u);
  EXPECT_EQ(client->state(), TcpState::kClosed);
  EXPECT_EQ(client->error(), Status::kOk);
  ASSERT_TRUE(RunUntil([&] { return server->state() == TcpState::kClosed; }));
  EXPECT_EQ(server->error(), Status::kOk);
}

// A delayed ack escalated to immediate outside an RX burst is an earlier deadline: popping
// from a zero window must send the window update on the next poll, not 500 us later when the
// delayed ack the entry is armed for comes due.
TEST(TcpOneTimerTest, WindowUpdateAfterZeroWindowPopGoesOutOnTheNextPoll) {
  class Fixture : public TcpBatchingTest {
   public:
    Fixture() : TcpBatchingTest(LinkConfig{}, TcpConfig{}, SmallWindow()) {}
    void TestBody() override {}  // instantiated directly, not through the gtest registry
    static TcpConfig SmallWindow() {
      TcpConfig c;
      c.recv_buffer_bytes = 1000;
      return c;
    }
    void Run() {
      auto [client, server] = EstablishPair();
      PushString(a_, client, std::string(1000, 'w'));  // sub-MSS: the ack may be delayed
      ASSERT_TRUE(RunUntil([&] { return server->conn_stats().bytes_received >= 1000; }));
      const uint64_t tx_before = b_.tcp.stats().segments_tx;
      ASSERT_TRUE(server->PopData().has_value());  // the window was closed: ack now
      clock_.Advance(kMicrosecond);
      b_.sched.Poll();
      EXPECT_EQ(b_.tcp.stats().segments_tx - tx_before, 1u) << "the window update waited";
      EXPECT_EQ(server->conn_stats().delayed_acks, 0u);
    }
  };
  Fixture().Run();
}

// An RTO that shrinks after the first RTT sample gives a retransmit deadline earlier than the
// one the entry is armed for (the handshake's 10 ms connect retry): it must re-arm, and the
// retransmission fires exactly at its own deadline.
TEST_F(TcpBatchingTest, RetransmitFiresOnTheShrunkRtoNotTheArmedDeadline) {
  auto [client, server] = EstablishPair();
  PushString(a_, client, "warm");  // the ack's RTT sample shrinks the RTO below its initial 10 ms
  EXPECT_EQ(DrainString(server, 4), "warm");
  ASSERT_TRUE(RunUntil([&] { return client->BytesInFlight() == 0; }));
  const DurationNs rto = client->rtt_estimator().rto();
  ASSERT_LT(rto, TcpConfig{}.initial_rto);
  const TimeNs t0 = clock_.Now();
  ASSERT_GT(a_.sched.timer_wheel().NextDeadline(), t0 + rto) << "the entry is not armed later";

  StartDroppingFrames();
  PushString(a_, client, "lost");
  StopDroppingFrames();
  // Step the clock from one wheel deadline to the next: none lies past the RTO.
  while (client->conn_stats().retransmits == 0) {
    const TimeNs next = a_.sched.timer_wheel().NextDeadline();
    ASSERT_GT(next, clock_.Now());
    ASSERT_LE(next, t0 + rto);
    clock_.SetTime(next);
    a_.sched.Poll();
  }
  EXPECT_EQ(clock_.Now(), t0 + rto);
  EXPECT_EQ(DrainString(server, 4), "lost");
}

}  // namespace
}  // namespace demi
