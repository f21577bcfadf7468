// Tests for the simulated kernel-bypass devices: fabric, SimNic, SimRdmaDevice.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/memory/pool_allocator.h"
#include "src/netsim/rss.h"
#include "src/netsim/sim_network.h"
#include "src/netsim/sim_rdma.h"

namespace demi {
namespace {

WireFrame MakeFrame(const char* text) {
  const auto* p = reinterpret_cast<const uint8_t*>(text);
  return WireFrame(p, p + std::strlen(text));
}

std::span<const uint8_t> AsSpan(const WireFrame& f) { return {f.data(), f.size()}; }

class SimNicTest : public ::testing::Test {
 protected:
  SimNicTest() : net_(LinkConfig{}, /*seed=*/7), a_(net_, MacAddr{1}, clock_), b_(net_, MacAddr{2}, clock_) {}

  VirtualClock clock_;
  SimNetwork net_;
  SimNic a_;
  SimNic b_;
};

TEST_F(SimNicTest, FrameArrivesAfterLatency) {
  WireFrame payload = MakeFrame("hello");
  std::span<const uint8_t> seg = AsSpan(payload);
  ASSERT_EQ(a_.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);

  WireFrame rx[4];
  EXPECT_EQ(b_.RxBurst(rx, clock_.Now()), 0u);  // not yet: propagation delay
  clock_.Advance(net_.link().latency + 1 * kMicrosecond);
  ASSERT_EQ(b_.RxBurst(rx, clock_.Now()), 1u);
  EXPECT_EQ(std::memcmp(rx[0].data(), "hello", 5), 0);
}

TEST_F(SimNicTest, OversizeFrameRejected) {
  std::vector<uint8_t> big(net_.link().mtu + 1, 0);
  std::span<const uint8_t> seg(big);
  EXPECT_EQ(a_.TxBurst(MacAddr{2}, {&seg, 1}), Status::kMessageTooLong);
  EXPECT_EQ(a_.stats().tx_oversize, 1u);
}

TEST_F(SimNicTest, GatherConcatenatesSegments) {
  WireFrame h = MakeFrame("head|");
  WireFrame t = MakeFrame("tail");
  std::span<const uint8_t> segs[2] = {AsSpan(h), AsSpan(t)};
  ASSERT_EQ(a_.TxBurst(MacAddr{2}, segs), Status::kOk);
  clock_.Advance(10 * kMicrosecond);
  WireFrame rx[1];
  ASSERT_EQ(b_.RxBurst(rx, clock_.Now()), 1u);
  EXPECT_EQ(rx[0].size(), 9u);
  EXPECT_EQ(std::memcmp(rx[0].data(), "head|tail", 9), 0);
}

TEST_F(SimNicTest, BroadcastReachesAllButSender) {
  SimNic c(net_, MacAddr{3}, clock_);
  WireFrame payload = MakeFrame("arp");
  std::span<const uint8_t> seg = AsSpan(payload);
  ASSERT_EQ(a_.TxBurst(MacAddr::Broadcast(), {&seg, 1}), Status::kOk);
  clock_.Advance(10 * kMicrosecond);
  WireFrame rx[4];
  EXPECT_EQ(b_.RxBurst(rx, clock_.Now()), 1u);
  EXPECT_EQ(c.RxBurst(rx, clock_.Now()), 1u);
  EXPECT_EQ(a_.RxBurst(rx, clock_.Now()), 0u);
}

TEST_F(SimNicTest, UnknownDestinationVanishes) {
  WireFrame payload = MakeFrame("x");
  std::span<const uint8_t> seg = AsSpan(payload);
  EXPECT_EQ(a_.TxBurst(MacAddr{99}, {&seg, 1}), Status::kOk);
  clock_.Advance(10 * kMicrosecond);
  WireFrame rx[1];
  EXPECT_EQ(b_.RxBurst(rx, clock_.Now()), 0u);
}

// A burst-sized RxBurst must return only frames whose simulated delivery time has arrived:
// batching the poll loop must not let later frames jump their propagation delay.
TEST_F(SimNicTest, RxBurstHonorsPerFrameDeliveryTimes) {
  // Three frames staggered 10 µs apart on a 1 µs-latency link.
  bool first = true;
  for (const char* text : {"f-one", "f-two", "f-three"}) {
    if (!first) {
      clock_.Advance(10 * kMicrosecond);
    }
    first = false;
    WireFrame f = MakeFrame(text);
    std::span<const uint8_t> seg = AsSpan(f);
    ASSERT_EQ(a_.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  }
  // Halfway into frame 3's propagation: frames 1 and 2 (sent at t=0 and t=10 µs) are due,
  // frame 3 (sent at t=20 µs, due at ~21 µs) is still on the wire.
  clock_.Advance(net_.link().latency / 2);
  WireFrame rx[32];
  EXPECT_EQ(b_.RxBurst(rx, clock_.Now()), 2u)
      << "burst returned a frame ahead of its delivery time";
  EXPECT_EQ(std::memcmp(rx[0].data(), "f-one", 5), 0);
  EXPECT_EQ(std::memcmp(rx[1].data(), "f-two", 5), 0);
  clock_.Advance(net_.link().latency);
  ASSERT_EQ(b_.RxBurst(rx, clock_.Now()), 1u);
  EXPECT_EQ(std::memcmp(rx[0].data(), "f-three", 7), 0);
}

TEST_F(SimNicTest, FramesStayInOrderOnCleanLink) {
  for (int i = 0; i < 50; i++) {
    WireFrame f{static_cast<uint8_t>(i)};
    std::span<const uint8_t> seg = AsSpan(f);
    ASSERT_EQ(a_.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  }
  clock_.Advance(1 * kMillisecond);
  WireFrame rx[64];
  const size_t n = b_.RxBurst(rx, clock_.Now());
  ASSERT_EQ(n, 50u);
  for (size_t i = 0; i < n; i++) {
    EXPECT_EQ(rx[i][0], static_cast<uint8_t>(i));
  }
}

TEST(SimNetworkTest, LossDropsRoughlyAtConfiguredRate) {
  LinkConfig link;
  link.loss = 0.2;
  VirtualClock clock;
  SimNetwork net(link, /*seed=*/11);
  SimNic a(net, MacAddr{1}, clock);
  SimNic b(net, MacAddr{2}, clock);
  constexpr int kFrames = 5000;
  WireFrame f = MakeFrame("z");
  std::span<const uint8_t> seg = AsSpan(f);
  for (int i = 0; i < kFrames; i++) {
    ASSERT_EQ(a.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  }
  clock.Advance(1 * kSecond);
  size_t received = 0;
  WireFrame rx[64];
  for (;;) {
    const size_t n = b.RxBurst(rx, clock.Now());
    if (n == 0) {
      break;
    }
    received += n;
  }
  EXPECT_NEAR(static_cast<double>(received) / kFrames, 0.8, 0.03);
  EXPECT_EQ(net.GetStats().frames_dropped_loss + received, static_cast<uint64_t>(kFrames));
}

TEST(SimNetworkTest, DuplicationDeliversTwice) {
  LinkConfig link;
  link.duplicate = 1.0;
  VirtualClock clock;
  SimNetwork net(link, 3);
  SimNic a(net, MacAddr{1}, clock);
  SimNic b(net, MacAddr{2}, clock);
  WireFrame f = MakeFrame("dup");
  std::span<const uint8_t> seg = AsSpan(f);
  ASSERT_EQ(a.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  clock.Advance(1 * kMillisecond);
  WireFrame rx[4];
  EXPECT_EQ(b.RxBurst(rx, clock.Now()), 2u);
}

TEST(SimNetworkTest, ReorderDelaysSomeFrames) {
  LinkConfig link;
  link.reorder = 0.5;
  link.reorder_extra = 100 * kMicrosecond;
  VirtualClock clock;
  SimNetwork net(link, 5);
  SimNic a(net, MacAddr{1}, clock);
  SimNic b(net, MacAddr{2}, clock);
  for (int i = 0; i < 20; i++) {
    WireFrame f{static_cast<uint8_t>(i)};
    std::span<const uint8_t> seg = AsSpan(f);
    ASSERT_EQ(a.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  }
  clock.Advance(1 * kSecond);
  WireFrame rx[32];
  const size_t n = b.RxBurst(rx, clock.Now());
  ASSERT_EQ(n, 20u);
  bool out_of_order = false;
  for (size_t i = 1; i < n; i++) {
    if (rx[i][0] < rx[i - 1][0]) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);
  EXPECT_GT(net.GetStats().frames_reordered, 0u);
}

TEST(SimNetworkTest, BandwidthAddsSerializationDelay) {
  LinkConfig link;
  link.latency = 0;
  link.bandwidth_bps = 8'000'000;  // 8 Mbps: 1000 bytes take 1 ms
  VirtualClock clock;
  SimNetwork net(link, 1);
  SimNic a(net, MacAddr{1}, clock);
  SimNic b(net, MacAddr{2}, clock);
  std::vector<uint8_t> kb(1000, 1);
  std::span<const uint8_t> seg(kb);
  ASSERT_EQ(a.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  WireFrame rx[1];
  clock.Advance(999 * kMicrosecond);
  EXPECT_EQ(b.RxBurst(rx, clock.Now()), 0u);
  clock.Advance(2 * kMicrosecond);
  EXPECT_EQ(b.RxBurst(rx, clock.Now()), 1u);
}

// A receiver skips its rx-queue lock while the earliest frame on the wire is not yet due. A
// frame queued behind a later-due one must lower that published time, or it would wait for
// the earlier sender's frame.
TEST(SimNetworkTest, FrameQueuedAfterALaterDueFrameArrivesOnTime) {
  LinkConfig link;
  link.bandwidth_bps = 8'000'000;  // 8 Mbps: 1000 bytes take 1 ms, 1 byte takes 1 us
  VirtualClock clock;
  SimNetwork net(link, 1);
  SimNic a(net, MacAddr{1}, clock);
  SimNic b(net, MacAddr{2}, clock);
  SimNic c(net, MacAddr{3}, clock);
  std::vector<uint8_t> kb(1000, 0xA);
  std::span<const uint8_t> big(kb);
  ASSERT_EQ(a.TxBurst(MacAddr{2}, {&big, 1}), Status::kOk);  // departs after 1 ms
  const uint8_t one = 0xC;
  std::span<const uint8_t> small(&one, 1);
  ASSERT_EQ(c.TxBurst(MacAddr{2}, {&small, 1}), Status::kOk);  // its own line: due in 2 us
  WireFrame rx[4];
  EXPECT_EQ(b.RxBurst(rx, clock.Now()), 0u);  // neither is due
  clock.Advance(10 * kMicrosecond);
  ASSERT_EQ(b.RxBurst(rx, clock.Now()), 1u);
  ASSERT_EQ(rx[0].size(), 1u);
  EXPECT_EQ(rx[0][0], 0xC);
  EXPECT_EQ(b.RxBurst(rx, clock.Now()), 0u);
  clock.Advance(1 * kMillisecond);
  ASSERT_EQ(b.RxBurst(rx, clock.Now()), 1u);
  EXPECT_EQ(rx[0].size(), 1000u);
}

TEST(SimNetworkTest, RxQueueTailDrops) {
  LinkConfig link;
  link.rx_queue_frames = 8;
  VirtualClock clock;
  SimNetwork net(link, 1);
  SimNic a(net, MacAddr{1}, clock);
  SimNic b(net, MacAddr{2}, clock);
  WireFrame f = MakeFrame("q");
  std::span<const uint8_t> seg = AsSpan(f);
  for (int i = 0; i < 20; i++) {
    ASSERT_EQ(a.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  }
  EXPECT_EQ(net.GetStats().frames_dropped_queue, 12u);
}

TEST(SimNetworkTest, NextDeliveryTimeTracksEarliestFrame) {
  VirtualClock clock(1000);
  SimNetwork net(LinkConfig{}, 1);
  SimNic a(net, MacAddr{1}, clock);
  SimNic b(net, MacAddr{2}, clock);
  EXPECT_EQ(net.NextDeliveryTime(), 0u);
  WireFrame f = MakeFrame("t");
  std::span<const uint8_t> seg = AsSpan(f);
  ASSERT_EQ(a.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  EXPECT_GT(net.NextDeliveryTime(), 1000u);
}

TEST(SimNetworkTest, CrossThreadPingPong) {
  // Two threads, monotonic clocks, like the echo benchmark topology.
  MonotonicClock clock;
  SimNetwork net(LinkConfig{.latency = 1 * kMicrosecond}, 1);
  SimNic server(net, MacAddr{1}, clock);
  SimNic client(net, MacAddr{2}, clock);
  constexpr int kRounds = 2000;

  std::thread server_thread([&] {
    WireFrame rx[8];
    int echoed = 0;
    while (echoed < kRounds) {
      const size_t n = server.RxBurst(rx, clock.Now());
      for (size_t i = 0; i < n; i++) {
        std::span<const uint8_t> seg(rx[i]);
        ASSERT_EQ(server.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
        echoed++;
      }
    }
  });

  WireFrame rx[8];
  for (int r = 0; r < kRounds; r++) {
    WireFrame f{static_cast<uint8_t>(r & 0xFF)};
    std::span<const uint8_t> seg = AsSpan(f);
    ASSERT_EQ(client.TxBurst(MacAddr{1}, {&seg, 1}), Status::kOk);
    size_t n = 0;
    while (n == 0) {
      n = client.RxBurst(std::span<WireFrame>(rx, 1), clock.Now());
    }
    ASSERT_EQ(rx[0][0], static_cast<uint8_t>(r & 0xFF));
  }
  server_thread.join();
}

// --- SimRdmaDevice ---

class SimRdmaTest : public ::testing::Test {
 protected:
  SimRdmaTest()
      : net_(LinkConfig{}, 9),
        a_(net_, MacAddr{10}, clock_),
        b_(net_, MacAddr{20}, clock_) {
    qp_a_ = *a_.CreateQp(1);
    qp_b_ = *b_.CreateQp(1);
  }

  // Registers a buffer on a device and returns it zeroed.
  std::vector<uint8_t>& MakeRegistered(SimRdmaDevice& dev, std::vector<uint8_t>& storage,
                                       size_t size) {
    storage.assign(size, 0);
    dev.RegisterMemory(storage.data(), storage.size());
    return storage;
  }

  VirtualClock clock_;
  SimNetwork net_;
  SimRdmaDevice a_;
  SimRdmaDevice b_;
  uint32_t qp_a_ = 0;
  uint32_t qp_b_ = 0;
};

TEST_F(SimRdmaTest, TwoSidedSendRecv) {
  std::vector<uint8_t> recv_buf;
  MakeRegistered(b_, recv_buf, 256);
  ASSERT_EQ(b_.PostRecv(qp_b_, recv_buf.data(), 256, /*wr_id=*/77), Status::kOk);

  std::vector<uint8_t> msg = {1, 2, 3, 4, 5};
  std::span<const uint8_t> seg(msg);
  ASSERT_EQ(a_.PostSend(qp_a_, MacAddr{20}, qp_b_, {&seg, 1}, /*wr_id=*/55), Status::kOk);

  // Sender sees a send completion.
  RdmaCompletion comps[4];
  ASSERT_EQ(a_.PollCq(comps, clock_.Now()), 1u);
  EXPECT_EQ(comps[0].type, RdmaCompletion::Type::kSend);
  EXPECT_EQ(comps[0].wr_id, 55u);

  // Receiver sees the message after the fabric delay.
  EXPECT_EQ(b_.PollCq(comps, clock_.Now()), 0u);
  clock_.Advance(10 * kMicrosecond);
  ASSERT_EQ(b_.PollCq(comps, clock_.Now()), 1u);
  EXPECT_EQ(comps[0].type, RdmaCompletion::Type::kRecv);
  EXPECT_EQ(comps[0].wr_id, 77u);
  EXPECT_EQ(comps[0].byte_len, 5u);
  EXPECT_EQ(comps[0].src_mac.value, 10u);
  EXPECT_EQ(std::memcmp(recv_buf.data(), msg.data(), 5), 0);
}

TEST_F(SimRdmaTest, LargeMessageFragmentsAndReassembles) {
  const size_t size = 10'000;  // several MTU-sized fragments
  std::vector<uint8_t> recv_buf;
  MakeRegistered(b_, recv_buf, size);
  ASSERT_EQ(b_.PostRecv(qp_b_, recv_buf.data(), static_cast<uint32_t>(size), 1), Status::kOk);

  std::vector<uint8_t> msg(size);
  for (size_t i = 0; i < size; i++) {
    msg[i] = static_cast<uint8_t>(i * 7);
  }
  a_.RegisterMemory(msg.data(), msg.size());
  std::span<const uint8_t> seg(msg);
  ASSERT_EQ(a_.PostSend(qp_a_, MacAddr{20}, qp_b_, {&seg, 1}, 2), Status::kOk);

  clock_.Advance(1 * kMillisecond);
  RdmaCompletion comps[4];
  ASSERT_EQ(b_.PollCq(comps, clock_.Now()), 1u);
  EXPECT_EQ(comps[0].byte_len, size);
  EXPECT_EQ(std::memcmp(recv_buf.data(), msg.data(), size), 0);
}

TEST_F(SimRdmaTest, RnrDropWhenNoRecvPosted) {
  std::vector<uint8_t> msg = {9};
  std::span<const uint8_t> seg(msg);
  ASSERT_EQ(a_.PostSend(qp_a_, MacAddr{20}, qp_b_, {&seg, 1}, 3), Status::kOk);
  clock_.Advance(10 * kMicrosecond);
  RdmaCompletion comps[4];
  EXPECT_EQ(b_.PollCq(comps, clock_.Now()), 0u);
  EXPECT_EQ(b_.stats().rnr_drops, 1u);
}

TEST_F(SimRdmaTest, RecvBufferTooSmallCompletesWithError) {
  std::vector<uint8_t> recv_buf;
  MakeRegistered(b_, recv_buf, 4);
  ASSERT_EQ(b_.PostRecv(qp_b_, recv_buf.data(), 4, 8), Status::kOk);
  std::vector<uint8_t> msg(100, 1);
  std::span<const uint8_t> seg(msg);
  ASSERT_EQ(a_.PostSend(qp_a_, MacAddr{20}, qp_b_, {&seg, 1}, 9), Status::kOk);
  clock_.Advance(10 * kMicrosecond);
  RdmaCompletion comps[4];
  ASSERT_EQ(b_.PollCq(comps, clock_.Now()), 1u);
  EXPECT_EQ(comps[0].status, Status::kMessageTooLong);
  EXPECT_EQ(b_.stats().recv_too_small, 1u);
}

TEST_F(SimRdmaTest, OneSidedWriteLandsInRegisteredMemory) {
  std::vector<uint8_t> window(64, 0);
  const uint64_t rkey = b_.RegisterMemory(window.data(), window.size());

  std::vector<uint8_t> update = {0xAB, 0xCD};
  ASSERT_EQ(a_.PostWrite(qp_a_, MacAddr{20}, qp_b_, rkey,
                         reinterpret_cast<uint64_t>(window.data() + 8), update, 4),
            Status::kOk);
  clock_.Advance(10 * kMicrosecond);
  RdmaCompletion comps[4];
  // One-sided: no receiver completion, but memory updated after device processes the frame.
  EXPECT_EQ(b_.PollCq(comps, clock_.Now()), 0u);
  EXPECT_EQ(window[8], 0xAB);
  EXPECT_EQ(window[9], 0xCD);
  // Sender got a write completion.
  ASSERT_EQ(a_.PollCq(comps, clock_.Now()), 1u);
  EXPECT_EQ(comps[0].type, RdmaCompletion::Type::kWrite);
}

TEST_F(SimRdmaTest, WriteWithBadRkeyRejected) {
  std::vector<uint8_t> window(64, 0);
  b_.RegisterMemory(window.data(), window.size());
  std::vector<uint8_t> update = {1};
  ASSERT_EQ(a_.PostWrite(qp_a_, MacAddr{20}, qp_b_, /*rkey=*/999999,
                         reinterpret_cast<uint64_t>(window.data()), update, 5),
            Status::kOk);
  clock_.Advance(10 * kMicrosecond);
  RdmaCompletion comps[4];
  b_.PollCq(comps, clock_.Now());
  EXPECT_EQ(b_.stats().bad_rkey_writes, 1u);
  EXPECT_EQ(window[0], 0);
}

TEST_F(SimRdmaTest, ManyMessagesStayOrdered) {
  std::vector<std::vector<uint8_t>> bufs(64, std::vector<uint8_t>(16, 0));
  for (size_t i = 0; i < bufs.size(); i++) {
    b_.RegisterMemory(bufs[i].data(), bufs[i].size());
    ASSERT_EQ(b_.PostRecv(qp_b_, bufs[i].data(), 16, i), Status::kOk);
  }
  for (uint8_t i = 0; i < 64; i++) {
    std::vector<uint8_t> msg = {i};
    std::span<const uint8_t> seg(msg);
    ASSERT_EQ(a_.PostSend(qp_a_, MacAddr{20}, qp_b_, {&seg, 1}, i), Status::kOk);
  }
  clock_.Advance(1 * kMillisecond);
  RdmaCompletion comps[128];
  const size_t n = b_.PollCq(comps, clock_.Now());
  ASSERT_EQ(n, 64u);
  for (size_t i = 0; i < n; i++) {
    EXPECT_EQ(comps[i].wr_id, i);  // recv buffers consumed FIFO, messages in order
    EXPECT_EQ(bufs[i][0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(b_.stats().seq_violations, 0u);
}

TEST_F(SimRdmaTest, QpNumbersCollideExplicitly) {
  auto r = a_.CreateQp(1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Status::kAddressInUse);
  auto r2 = a_.CreateQp();
  EXPECT_TRUE(r2.ok());
}

// --- RSS + multi-queue ---

// Builds an Ethernet+IPv4+UDP frame carrying the given 4-tuple (payload empty).
WireFrame MakeUdpFrame(Ipv4Addr src, Ipv4Addr dst, uint16_t sport, uint16_t dport) {
  WireFrame f(14 + 20 + 8, 0);
  f[12] = 0x08;  // ethertype IPv4
  f[13] = 0x00;
  f[14] = 0x45;  // v4, ihl=5
  f[17] = 28;    // total length = 20 + 8
  f[22] = 64;    // ttl
  f[23] = 17;    // UDP
  for (int i = 0; i < 4; i++) {
    f[26 + i] = static_cast<uint8_t>(src.value >> (24 - 8 * i));
    f[30 + i] = static_cast<uint8_t>(dst.value >> (24 - 8 * i));
  }
  f[34] = static_cast<uint8_t>(sport >> 8);
  f[35] = static_cast<uint8_t>(sport);
  f[36] = static_cast<uint8_t>(dport >> 8);
  f[37] = static_cast<uint8_t>(dport);
  f[39] = 8;  // udp length
  return f;
}

// The hash must be the real Toeplitz construction: check the IPv4 test vectors from the
// Microsoft RSS specification (the ones every NIC datasheet validates against).
TEST(RssTest, MatchesMicrosoftToeplitzTestVectors) {
  struct Vec {
    const char* src_ip;
    uint16_t src_port;
    const char* dst_ip;
    uint16_t dst_port;
    uint32_t expected;
  };
  const Vec vecs[] = {
      {"66.9.149.187", 2794, "161.142.100.80", 1766, 0x51ccc178},
      {"199.92.111.2", 14230, "65.69.140.83", 4739, 0xc626b0ea},
      {"24.19.198.95", 12898, "12.22.207.184", 38024, 0x5c2b394a},
      {"38.27.205.30", 48228, "209.142.163.6", 2217, 0xafc7327f},
      {"153.39.163.191", 44251, "202.188.127.2", 1303, 0x10e828a2},
  };
  auto parse = [](const char* s) {
    unsigned a, b, c, d;
    EXPECT_EQ(std::sscanf(s, "%u.%u.%u.%u", &a, &b, &c, &d), 4);
    return Ipv4Addr::FromOctets(static_cast<uint8_t>(a), static_cast<uint8_t>(b),
                                static_cast<uint8_t>(c), static_cast<uint8_t>(d));
  };
  for (const Vec& v : vecs) {
    EXPECT_EQ(RssHash4Tuple(parse(v.src_ip), parse(v.dst_ip), v.src_port, v.dst_port),
              v.expected)
        << v.src_ip;
  }
}

TEST(RssTest, SameTupleAlwaysSameQueue) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(10, 0, 0, 2);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(10, 0, 0, 1);
  const WireFrame f = MakeUdpFrame(src, dst, 40007, 7000);
  const size_t queue = RssQueueForFrame(AsSpan(f), 4);
  ASSERT_LT(queue, 4u);
  for (int i = 0; i < 16; i++) {
    EXPECT_EQ(RssQueueForFrame(AsSpan(f), 4), queue);
    EXPECT_EQ(RssQueueForFrame(AsSpan(MakeUdpFrame(src, dst, 40007, 7000)), 4), queue);
  }
  // Non-IPv4 (ARP etc.) and single-queue ports always use queue 0.
  EXPECT_EQ(RssQueueForFrame(AsSpan(MakeFrame("not-an-ip-frame")), 4), 0u);
  EXPECT_EQ(RssQueueForFrame(AsSpan(f), 1), 0u);
}

TEST(RssTest, RandomFlowsSpreadAcrossQueues) {
  Rng rng(42);
  constexpr size_t kFlows = 1000;
  constexpr size_t kQueues = 4;
  size_t counts[kQueues] = {};
  for (size_t i = 0; i < kFlows; i++) {
    const Ipv4Addr src{static_cast<uint32_t>(rng.Next())};
    const Ipv4Addr dst = Ipv4Addr::FromOctets(10, 0, 0, 1);
    const uint16_t sport = static_cast<uint16_t>(1024 + rng.NextBounded(60000));
    const WireFrame f = MakeUdpFrame(src, dst, sport, 7000);
    counts[RssQueueForFrame(AsSpan(f), kQueues)]++;
  }
  // Binomial(1000, 1/4): mean 250, stddev ~13.7. [180, 320] is a >5-sigma bound — a failure
  // means the hash is biased, not that we got unlucky.
  for (size_t q = 0; q < kQueues; q++) {
    EXPECT_GE(counts[q], 180u) << "queue " << q;
    EXPECT_LE(counts[q], 320u) << "queue " << q;
  }
}

TEST(MultiQueueNicTest, RssSteersFlowsToPredictedQueues) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/7);
  SimNic sender(net, MacAddr{1}, clock);       // classic single-queue device
  SimNic receiver(net, MacAddr{2}, clock, 4);  // multi-queue PMD
  ASSERT_EQ(receiver.num_queues(), 4u);

  const Ipv4Addr dst_ip = Ipv4Addr::FromOctets(10, 0, 0, 1);
  size_t expected_per_queue[4] = {};
  constexpr size_t kFlows = 32;
  for (size_t i = 0; i < kFlows; i++) {
    const Ipv4Addr src_ip = Ipv4Addr::FromOctets(10, 0, 1, static_cast<uint8_t>(i + 1));
    WireFrame f = MakeUdpFrame(src_ip, dst_ip, static_cast<uint16_t>(40000 + i), 7000);
    expected_per_queue[RssQueueForFrame(AsSpan(f), 4)]++;
    std::span<const uint8_t> seg(f);
    ASSERT_EQ(sender.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  }
  clock.Advance(10 * kMicrosecond);

  size_t total = 0;
  for (size_t q = 0; q < 4; q++) {
    WireFrame rx[kFlows];
    size_t got = 0;
    size_t n;
    while ((n = receiver.RxBurst(q, std::span<WireFrame>(rx + got, kFlows - got), clock.Now())) >
           0) {
      got += n;
    }
    EXPECT_EQ(got, expected_per_queue[q]) << "queue " << q;
    // Every frame on queue q must hash to q: flow-to-queue pinning is what shards rely on.
    for (size_t i = 0; i < got; i++) {
      EXPECT_EQ(RssQueueForFrame(AsSpan(rx[i]), 4), q);
    }
    EXPECT_EQ(receiver.queue_stats(q).rx_frames, got);
    total += got;
  }
  EXPECT_EQ(total, kFlows);
  EXPECT_EQ(receiver.stats().rx_frames, kFlows);  // aggregate sums the queue views
  // At least two queues must actually be populated for this to test steering.
  size_t populated = 0;
  for (size_t q = 0; q < 4; q++) {
    populated += expected_per_queue[q] > 0 ? 1 : 0;
  }
  EXPECT_GE(populated, 2u);
}

TEST(MultiQueueNicTest, NonIpv4LandsOnQueueZero) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/7);
  SimNic sender(net, MacAddr{1}, clock);
  SimNic receiver(net, MacAddr{2}, clock, 4);
  WireFrame f = MakeFrame("raw-non-ip-payload");
  std::span<const uint8_t> seg(f);
  ASSERT_EQ(sender.TxBurst(MacAddr{2}, {&seg, 1}), Status::kOk);
  clock.Advance(10 * kMicrosecond);
  WireFrame rx[4];
  EXPECT_EQ(receiver.RxBurst(0, rx, clock.Now()), 1u);
  for (size_t q = 1; q < 4; q++) {
    EXPECT_EQ(receiver.RxBurst(q, rx, clock.Now()), 0u);
  }
}

TEST(MultiQueueNicTest, PerQueueTxStatsAggregate) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/7);
  SimNic nic(net, MacAddr{1}, clock, 2);
  WireFrame f = MakeFrame("x");
  std::span<const uint8_t> seg(f);
  ASSERT_EQ(nic.TxBurst(0, MacAddr{9}, {&seg, 1}), Status::kOk);
  ASSERT_EQ(nic.TxBurst(1, MacAddr{9}, {&seg, 1}), Status::kOk);
  ASSERT_EQ(nic.TxBurst(1, MacAddr{9}, {&seg, 1}), Status::kOk);
  EXPECT_EQ(nic.queue_stats(0).tx_frames, 1u);
  EXPECT_EQ(nic.queue_stats(1).tx_frames, 2u);
  EXPECT_EQ(nic.stats().tx_frames, 3u);
}

}  // namespace
}  // namespace demi
