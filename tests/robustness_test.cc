// Failure-injection and hard-edge tests across modules: heap misuse aborts (UAF protection is
// only as good as its enforcement), torn-write log recovery, RDMA device boundary violations,
// and timer ordering.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/memory/buffer.h"
#include "src/memory/pool_allocator.h"
#include "src/netsim/sim_rdma.h"
#include "src/runtime/scheduler.h"
#include "src/common/random.h"
#include "src/netsim/pcap_writer.h"
#include "src/storage/log_device.h"
#include "tests/log_driver.h"

#include <unistd.h>

namespace demi {
namespace {

// --- Heap misuse must abort loudly (DEMI_CHECK), not corrupt silently ---

using HeapDeathTest = ::testing::Test;

TEST(HeapDeathTest, DoubleFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PoolAllocator alloc;
  void* p = alloc.Alloc(64);
  alloc.Free(p);
  EXPECT_DEATH(alloc.Free(p), "double free");
}

TEST(HeapDeathTest, DecRefWithoutRefAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PoolAllocator alloc;
  void* p = alloc.Alloc(64);
  EXPECT_DEATH(alloc.DecRef(p), "DecRef without reference");
  alloc.Free(p);
}

TEST(HeapDeathTest, ForeignPointerFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PoolAllocator alloc;
  alignas(PoolAllocator::kSuperblockSize) static char bogus[64];
  EXPECT_DEATH(alloc.Free(bogus), "not owned");
}

// --- Log recovery under corruption ---

TEST(LogRecoveryTest, TornWriteStopsRecoveryAtCorruption) {
  VirtualClock clock;
  SimBlockDevice dev(SimBlockDevice::Config{}, clock);
  Scheduler sched(clock);
  LogDevice log(dev, sched);

  auto append = [&](const std::string& payload) {
    LogDevice::Io io;
    log.StartAppend(io, OneSlice(payload));
    ASSERT_TRUE(DriveLogs(clock, sched, dev, {&log}, [&] { return IsDone(io); }));
    EXPECT_EQ(io.status, Status::kOk);
  };
  append("good-one");
  append("good-two");
  const uint64_t tail_after_two = log.tail();
  append("will-be-torn");

  // Corrupt the third record's header on the media (simulates a torn write at crash).
  std::vector<uint8_t> garbage(8, 0xFF);
  // Write garbage over the third record's magic via a raw device write.
  const uint64_t lba = tail_after_two / dev.config().block_size;
  std::vector<uint8_t> block(dev.config().block_size);
  dev.RawRead(lba * dev.config().block_size, block);
  std::memset(block.data() + (tail_after_two % dev.config().block_size), 0xFF, 8);
  ASSERT_EQ(dev.SubmitWrite(lba, block, 999), Status::kOk);
  clock.Advance(kSecond);
  SimBlockDevice::Completion comps[4];
  dev.PollCompletions(comps, 0, clock.Now());

  LogDevice recovered(dev, sched);
  ASSERT_EQ(recovered.Recover(), Status::kOk);
  // Recovery must stop exactly at the corruption: the two intact records survive, the torn one
  // is discarded.
  EXPECT_EQ(recovered.tail(), tail_after_two);
}

TEST(LogRecoveryTest, EmptyDeviceRecoversEmpty) {
  VirtualClock clock;
  SimBlockDevice dev(SimBlockDevice::Config{}, clock);
  Scheduler sched(clock);
  LogDevice log(dev, sched);
  ASSERT_EQ(log.Recover(), Status::kOk);
  EXPECT_EQ(log.tail(), 0u);
  EXPECT_EQ(log.head(), 0u);
}

// --- RDMA device boundary enforcement ---

TEST(RdmaBoundaryTest, WriteSpanningRegionEndRejected) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, 23);
  SimRdmaDevice a(net, MacAddr{1}, clock);
  SimRdmaDevice b(net, MacAddr{2}, clock);
  (void)a.CreateQp(1);
  (void)b.CreateQp(1);
  std::vector<uint8_t> window(64, 0);
  const uint64_t rkey = b.RegisterMemory(window.data(), window.size());
  std::vector<uint8_t> data(32, 0xEE);
  // Target the last 16 bytes of the region with a 32-byte write: must be rejected, memory
  // untouched.
  ASSERT_EQ(a.PostWrite(1, MacAddr{2}, 1, rkey,
                        reinterpret_cast<uint64_t>(window.data() + 48), data, 1),
            Status::kOk);
  clock.Advance(kMillisecond);
  RdmaCompletion comps[4];
  b.PollCq(comps, clock.Now());
  EXPECT_EQ(b.stats().bad_rkey_writes, 1u);
  for (uint8_t byte : window) {
    ASSERT_EQ(byte, 0);
  }
}

TEST(RdmaBoundaryTest, SendToDeadQpIsDroppedSilently) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, 29);
  SimRdmaDevice a(net, MacAddr{1}, clock);
  SimRdmaDevice b(net, MacAddr{2}, clock);
  (void)a.CreateQp(1);
  // b never creates QP 9.
  std::vector<uint8_t> msg = {1, 2, 3};
  std::span<const uint8_t> seg(msg);
  ASSERT_EQ(a.PostSend(1, MacAddr{2}, 9, {&seg, 1}, 1), Status::kOk);
  clock.Advance(kMillisecond);
  RdmaCompletion comps[4];
  EXPECT_EQ(b.PollCq(comps, clock.Now()), 0u);  // no recv completion, no crash
  EXPECT_EQ(b.stats().recvs, 0u);
}

TEST(RdmaBoundaryTest, UnregisterInvalidatesRkey) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, 31);
  SimRdmaDevice a(net, MacAddr{1}, clock);
  SimRdmaDevice b(net, MacAddr{2}, clock);
  (void)a.CreateQp(1);
  (void)b.CreateQp(1);
  std::vector<uint8_t> window(64, 0);
  const uint64_t rkey = b.RegisterMemory(window.data(), window.size());
  b.UnregisterMemory(window.data());
  std::vector<uint8_t> data = {0xAB};
  ASSERT_EQ(a.PostWrite(1, MacAddr{2}, 1, rkey, reinterpret_cast<uint64_t>(window.data()),
                        data, 1),
            Status::kOk);
  clock.Advance(kMillisecond);
  RdmaCompletion comps[4];
  b.PollCq(comps, clock.Now());
  EXPECT_EQ(b.stats().bad_rkey_writes, 1u);
  EXPECT_EQ(window[0], 0);
}

// --- Timers ---

TEST(RuntimeEdgeTest, TimersFireInDeadlineOrder) {
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<int> order;
  struct Fired {
    static void Record(void* ctx, uint64_t id) {
      static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(id));
    }
  };
  for (int i : {5, 1, 3, 2, 4}) {
    sched.ArmTimer(static_cast<TimeNs>(i) * 100, &Fired::Record, &order, static_cast<uint64_t>(i));
  }
  sched.Poll();  // none due yet
  for (int t = 1; t <= 5; t++) {
    clock.SetTime(static_cast<TimeNs>(t) * 100);
    sched.Poll();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// --- Buffer edge cases ---

TEST(BufferEdgeTest, EmptySliceAndTrimToZero) {
  PoolAllocator alloc;
  Buffer b = Buffer::Allocate(alloc, 128);
  Buffer empty = b.Slice(64, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  b.TrimTo(0);
  EXPECT_TRUE(b.empty());
}

TEST(BufferEdgeTest, SelfAssignAndMoveSelf) {
  PoolAllocator alloc;
  Buffer b = Buffer::Allocate(alloc, 256);
  b.mutable_data()[0] = 42;
  Buffer& ref = b;
  b = ref;  // self copy-assign
  EXPECT_EQ(b.data()[0], 42);
}

TEST(BufferEdgeTest, ChainedSlicesReleaseInAnyOrder) {
  PoolAllocator alloc;
  auto s3 = std::make_unique<Buffer>();
  {
    Buffer b = Buffer::Allocate(alloc, 4096);
    Buffer s1 = b.Slice(0, 1024);
    Buffer s2 = s1.Slice(512, 256);
    *s3 = s2.Slice(128, 64);
    // b, s1, s2 die here, out of order with s3.
  }
  EXPECT_EQ(s3->size(), 64u);
  s3->mutable_data()[0] = 7;  // memory still valid through the chain's last reference
  s3.reset();
  EXPECT_EQ(alloc.GetStats().live_objects, 0u);
  EXPECT_EQ(alloc.GetStats().deferred_frees, 0u);
}

// --- pcap round trip ---

TEST(PcapTest, WriteReadRoundTripPreservesFramesAndTimes) {
  char path[] = "/tmp/demi_pcap_rt_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);

  std::vector<std::vector<uint8_t>> frames;
  std::vector<TimeNs> times;
  {
    PcapWriter writer(path);
    ASSERT_TRUE(writer.ok());
    Rng rng(77);
    for (int i = 0; i < 100; i++) {
      std::vector<uint8_t> f(14 + rng.NextBounded(200));
      for (auto& b : f) {
        b = static_cast<uint8_t>(rng.Next());
      }
      const TimeNs t = static_cast<TimeNs>(i) * 1'234'000;  // µs-precision storable
      writer.WriteFrame(f, t);
      frames.push_back(std::move(f));
      times.push_back(t);
    }
    EXPECT_EQ(writer.frames_written(), 100u);
  }
  PcapReader reader(path);
  ASSERT_TRUE(reader.ok());
  PcapReader::Record rec;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(reader.Next(&rec)) << i;
    EXPECT_EQ(rec.frame, frames[i]);
    EXPECT_EQ(rec.timestamp, times[i]);  // exact: all inputs were µs-aligned
  }
  EXPECT_FALSE(reader.Next(&rec));  // clean EOF
  ::unlink(path);
}

TEST(PcapTest, ReaderRejectsGarbageFile) {
  char path[] = "/tmp/demi_pcap_bad_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  const char junk[] = "this is not a pcap file at all";
  ASSERT_EQ(::write(fd, junk, sizeof(junk)), static_cast<ssize_t>(sizeof(junk)));
  ::close(fd);
  PcapReader reader(path);
  EXPECT_FALSE(reader.ok());
  ::unlink(path);
}

}  // namespace
}  // namespace demi
