// Tests for the storage substrate: SimBlockDevice and LogDevice.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/memory/pool_allocator.h"
#include "src/runtime/scheduler.h"
#include "src/storage/log_device.h"
#include "src/storage/sim_block_device.h"
#include "tests/log_driver.h"

namespace demi {
namespace {

std::string Str(const Buffer& b) { return {reinterpret_cast<const char*>(b.data()), b.size()}; }

class BlockDeviceTest : public ::testing::Test {
 protected:
  BlockDeviceTest() : dev_(SimBlockDevice::Config{}, clock_) {}
  VirtualClock clock_;
  SimBlockDevice dev_;
};

TEST_F(BlockDeviceTest, WriteThenReadRoundTrips) {
  std::vector<uint8_t> data(4096, 0x5A);
  ASSERT_EQ(dev_.SubmitWrite(3, data, 1), Status::kOk);
  SimBlockDevice::Completion comps[4];
  EXPECT_EQ(dev_.PollCompletions(comps, 0, clock_.Now()), 0u);  // async: latency not elapsed
  clock_.Advance(100 * kMicrosecond);
  ASSERT_EQ(dev_.PollCompletions(comps, 0, clock_.Now()), 1u);
  EXPECT_EQ(comps[0].cookie, 1u);

  std::vector<uint8_t> out(4096, 0);
  ASSERT_EQ(dev_.SubmitRead(3, out, 2), Status::kOk);
  clock_.Advance(100 * kMicrosecond);
  ASSERT_EQ(dev_.PollCompletions(comps, 0, clock_.Now()), 1u);
  EXPECT_EQ(out, data);
}

// Pollers skip the device lock while no op is in flight. The in-flight count spans every
// queue, and another queue's poll must not hand out (or lose) this queue's completion.
TEST_F(BlockDeviceTest, IdlePollsAreEmptyAndOtherQueuesKeepTheirCompletions) {
  dev_.ConfigureQueues(2);
  SimBlockDevice::Completion comps[4];
  EXPECT_EQ(dev_.PollCompletions(comps, 0, clock_.Now()), 0u);
  EXPECT_EQ(dev_.PollCompletions(comps, 1, clock_.Now()), 0u);
  std::vector<uint8_t> data(4096, 0x1);
  ASSERT_EQ(dev_.SubmitWrite(5, data, /*cookie=*/7, /*queue=*/1), Status::kOk);
  clock_.Advance(100 * kMicrosecond);
  EXPECT_EQ(dev_.PollCompletions(comps, 0, clock_.Now()), 0u);  // retires it onto queue 1
  ASSERT_EQ(dev_.PollCompletions(comps, 1, clock_.Now()), 1u);
  EXPECT_EQ(comps[0].cookie, 7u);
  EXPECT_EQ(comps[0].status, Status::kOk);
  EXPECT_EQ(dev_.PollCompletions(comps, 1, clock_.Now()), 0u);
  EXPECT_EQ(dev_.PollCompletions(comps, 0, clock_.Now()), 0u);
}

TEST_F(BlockDeviceTest, WriteLatencyModelHolds) {
  std::vector<uint8_t> data(4096, 1);
  ASSERT_EQ(dev_.SubmitWrite(0, data, 1), Status::kOk);
  const TimeNs expected = dev_.NextCompletionTime();
  // kWriteLatency (10us) + transfer (4096B @ 2GB/s ~ 2us)
  EXPECT_GE(expected, 10 * kMicrosecond);
  EXPECT_LE(expected, 15 * kMicrosecond);
}

TEST_F(BlockDeviceTest, RejectsPartialBlocks) {
  std::vector<uint8_t> data(100, 1);
  EXPECT_EQ(dev_.SubmitWrite(0, data, 1), Status::kInvalidArgument);
}

TEST_F(BlockDeviceTest, RejectsOutOfRange) {
  std::vector<uint8_t> data(4096, 1);
  EXPECT_EQ(dev_.SubmitWrite(dev_.config().num_blocks, data, 1), Status::kInvalidArgument);
}

TEST_F(BlockDeviceTest, QueueDepthEnforced) {
  std::vector<uint8_t> data(4096, 1);
  Status s = Status::kOk;
  size_t accepted = 0;
  for (size_t i = 0; i < SimBlockDevice::kQueueDepth + 10; i++) {
    s = dev_.SubmitWrite(0, data, i);
    if (s == Status::kOk) {
      accepted++;
    }
  }
  EXPECT_EQ(s, Status::kQueueFull);
  EXPECT_EQ(accepted, SimBlockDevice::kQueueDepth);
  EXPECT_GT(dev_.GetStats().queue_full_rejections, 0u);
}

TEST_F(BlockDeviceTest, CompletionsOrderedByTime) {
  std::vector<uint8_t> data(4096, 1);
  ASSERT_EQ(dev_.SubmitWrite(0, data, 10), Status::kOk);
  ASSERT_EQ(dev_.SubmitWrite(1, data, 11), Status::kOk);
  ASSERT_EQ(dev_.SubmitWrite(2, data, 12), Status::kOk);
  clock_.Advance(1 * kMillisecond);
  SimBlockDevice::Completion comps[8];
  const size_t n = dev_.PollCompletions(comps, 0, clock_.Now());
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(comps[0].cookie, 10u);
  EXPECT_EQ(comps[1].cookie, 11u);
  EXPECT_EQ(comps[2].cookie, 12u);
}

// LogDevice tests start I/Os and poll the device the way Cattree's fast path does.
class LogDeviceTest : public ::testing::Test {
 protected:
  LogDeviceTest()
      : dev_(SimBlockDevice::Config{}, clock_), sched_(clock_), log_(dev_, sched_) {}

  // Polls the log until `io` is done while advancing the virtual clock to device completions.
  void RunUntil(const LogDevice::Io& io) {
    ASSERT_TRUE(DriveLogs(clock_, sched_, dev_, {&log_}, [&] { return IsDone(io); }))
        << "log operation did not finish";
  }

  uint64_t AppendSync(const std::string& payload, Status* status_out = nullptr) {
    LogDevice::Io io;
    log_.StartAppend(io, OneSlice(payload));
    RunUntil(io);
    if (status_out != nullptr) {
      *status_out = io.status;
    }
    return io.status == Status::kOk ? io.offset : UINT64_MAX;
  }

  // Reads the record at `cursor` of `log` (the fixture's by default).
  Result<LogDevice::ReadResult> ReadSync(uint64_t cursor, LogDevice* log = nullptr) {
    log = log != nullptr ? log : &log_;
    LogDevice::Io io;
    log->StartRead(io, cursor, alloc_);
    EXPECT_TRUE(DriveLogs(clock_, sched_, dev_, {log}, [&] { return IsDone(io); }))
        << "log operation did not finish";
    if (io.status != Status::kOk) {
      return io.status;
    }
    return std::move(io.record);
  }

  // Overwrites media bytes behind the log's back (a torn or corrupted write): `bytes` go at
  // `offset`, which must leave them inside one block.
  void PatchMedia(uint64_t offset, const std::vector<uint8_t>& bytes) {
    const size_t bs = dev_.config().block_size;
    std::vector<uint8_t> block(bs);
    dev_.RawRead(offset / bs * bs, block);
    std::memcpy(block.data() + offset % bs, bytes.data(), bytes.size());
    ASSERT_EQ(dev_.SubmitWrite(offset / bs, block, /*cookie=*/999), Status::kOk);
    clock_.Advance(kSecond);
    SimBlockDevice::Completion comps[4];
    ASSERT_EQ(dev_.PollCompletions(comps, 0, clock_.Now()), 1u);
  }

  VirtualClock clock_;
  SimBlockDevice dev_;
  Scheduler sched_;
  LogDevice log_;
  PoolAllocator alloc_;
};

std::vector<uint8_t> U32s(std::initializer_list<uint32_t> words) {
  std::vector<uint8_t> out(words.size() * 4);
  std::memcpy(out.data(), std::data(words), out.size());
  return out;
}

TEST_F(LogDeviceTest, AppendThenReadBack) {
  const uint64_t off = AppendSync("hello log");
  EXPECT_EQ(off, 0u);
  auto r = ReadSync(off);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Str(r->payload), "hello log");
}

TEST_F(LogDeviceTest, SequentialRecordsChainViaCursor) {
  AppendSync("first");
  AppendSync("second record");
  AppendSync("third");
  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < 3; i++) {
    auto r = ReadSync(cursor);
    ASSERT_TRUE(r.ok());
    seen.push_back(Str(r->payload));
    cursor = r->next_cursor;
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"first", "second record", "third"}));
  auto eof = ReadSync(cursor);
  EXPECT_EQ(eof.error(), Status::kEndOfFile);
}

TEST_F(LogDeviceTest, RecordsSpanningBlocksRoundTrip) {
  std::string big(10'000, 'x');
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  AppendSync("padding-to-offset");
  const uint64_t off = AppendSync(big);
  auto r = ReadSync(off);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Str(r->payload), big);
}

TEST_F(LogDeviceTest, TruncateGarbageCollects) {
  AppendSync("old");
  const uint64_t second = AppendSync("new");
  ASSERT_EQ(log_.Truncate(second), Status::kOk);
  EXPECT_EQ(ReadSync(0).error(), Status::kInvalidArgument);
  auto r = ReadSync(second);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Str(r->payload), "new");
}

TEST_F(LogDeviceTest, TruncateBeyondTailRejected) {
  AppendSync("x");
  EXPECT_EQ(log_.Truncate(1 << 20), Status::kInvalidArgument);
}

TEST_F(LogDeviceTest, RecoveryRebuildsTailFromMedia) {
  AppendSync("persisted-one");
  AppendSync("persisted-two");
  const uint64_t tail_before = log_.tail();

  LogDevice recovered(dev_, sched_);
  ASSERT_EQ(recovered.Recover(), Status::kOk);
  EXPECT_EQ(recovered.tail(), tail_before);

  // The recovered log reads the same records.
  auto r = ReadSync(0, &recovered);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(Str(r->payload), "persisted-one");
}

TEST_F(LogDeviceTest, RecoveryAfterAppendContinuesLog) {
  AppendSync("before-crash");
  LogDevice recovered(dev_, sched_);
  ASSERT_EQ(recovered.Recover(), Status::kOk);

  const std::string after = "after-crash";
  LogDevice::Io io;
  recovered.StartAppend(io, OneSlice(after));
  ASSERT_TRUE(DriveLogs(clock_, sched_, dev_, {&recovered}, [&] { return IsDone(io); }));
  EXPECT_EQ(io.status, Status::kOk);

  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < 2; i++) {
    auto r = ReadSync(cursor, &recovered);
    EXPECT_TRUE(r.ok());
    seen.push_back(Str(r->payload));
    cursor = r->next_cursor;
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"before-crash", "after-crash"}));
}

TEST_F(LogDeviceTest, ConcurrentAppendsSerialize) {
  // Several appends started at once must not interleave corruptly, and reach the log in the
  // order they started.
  constexpr int kAppenders = 8;
  std::array<LogDevice::Io, kAppenders> ios;
  std::vector<std::string> payloads;
  for (int i = 0; i < kAppenders; i++) {
    payloads.push_back("appender-" + std::to_string(i));
  }
  for (int i = 0; i < kAppenders; i++) {
    log_.StartAppend(ios[i], OneSlice(payloads[i]));
  }
  DriveLogs(clock_, sched_, dev_, {&log_},
            [&] { return std::all_of(ios.begin(), ios.end(), IsDone); });
  for (const LogDevice::Io& io : ios) {
    ASSERT_TRUE(IsDone(io));
    EXPECT_EQ(io.status, Status::kOk);
  }

  // All records readable, each exactly once, in submission order.
  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < kAppenders; i++) {
    auto r = ReadSync(cursor);
    ASSERT_TRUE(r.ok());
    seen.push_back(Str(r->payload));
    cursor = r->next_cursor;
  }
  EXPECT_EQ(seen, payloads);
}

TEST_F(LogDeviceTest, FillsToCapacityThenRejects) {
  std::string chunk(4096 - 16, 'c');
  Status st = Status::kOk;
  int appended = 0;
  while (st == Status::kOk && appended < 100000) {
    AppendSync(chunk, &st);
    if (st == Status::kOk) {
      appended++;
    }
  }
  EXPECT_EQ(st, Status::kNoBufferSpace);
  EXPECT_GT(appended, 0);
}

// The online reader and recovery share one decoder, so every corrupt unit must stop both at
// the same offset: Read fails with kProtocolError and ScanPartition ends the log there. Each
// case corrupts the middle of three records, then restores it.
TEST_F(LogDeviceTest, CorruptUnitsStopReaderAndRecoveryAlike) {
  constexpr uint32_t kRecordMagic = 0x4C4F4752;
  constexpr uint32_t kPadMagic = 0x4C4F4750;
  constexpr uint32_t kHuge = 0x7FFFFFF8;  // 8-aligned and far past the 64 MB partition
  // A record header whose header CRC verifies but whose length runs past the partition.
  std::vector<uint8_t> long_header = U32s({kRecordMagic, kHuge, 2, 0, 0});
  const uint32_t header_crc = Crc32(long_header.data(), long_header.size());
  long_header.resize(long_header.size() + 4);
  std::memcpy(long_header.data() + 20, &header_crc, 4);
  struct Case {
    const char* name;
    uint64_t at;  // offset within the victim record
    std::vector<uint8_t> bytes;
  };
  const std::vector<Case> cases = {
      {"bad header CRC", 8, {0xFF}},  // the epoch changes under the header CRC
      {"bad payload CRC", LogDevice::kHeaderSize, {'X'}},
      {"pad skip not a multiple of 8", 0, U32s({kPadMagic, 12})},
      {"pad skip past the tail", 0, U32s({kPadMagic, kHuge})},
      {"record past the tail", 0, long_header},
  };
  AppendSync("intact");
  const uint64_t victim = AppendSync("victim-payload");
  AppendSync("after");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> original(c.bytes.size());
    dev_.RawRead(victim + c.at, original);
    PatchMedia(victim + c.at, c.bytes);

    auto first = ReadSync(0);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->next_cursor, victim);
    EXPECT_EQ(ReadSync(victim).error(), Status::kProtocolError);
    EXPECT_EQ(LogDevice::ScanPartition(dev_, log_.partition(), nullptr), victim);

    PatchMedia(victim + c.at, original);
    EXPECT_TRUE(ReadSync(victim).ok());
  }
}

// FNV-1a over the media. A CRC-32 would not do: a record header followed by its own CRC-32
// contributes nothing to a CRC-32 taken over both, so a changed epoch or magic would not show.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325u;
  for (const uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3u;
  }
  return h;
}

// Pins the bytes a fixed append sequence leaves on the media, so a change to the record codec
// or to either placement (packed or block-aligned) cannot pass unnoticed.
TEST_F(LogDeviceTest, MediaFormatIsPinned) {
  AppendSync("packed-one");
  const std::string a = "gathered-";
  const std::string b = "slices";
  const std::array<std::span<const uint8_t>, 2> slices = {Bytes(a), Bytes(b)};
  LogDevice::Io io;
  log_.StartAppendSg(io, slices);
  RunUntil(io);
  EXPECT_EQ(io.status, Status::kOk);
  AppendSync("packed-two");
  AppendSync("");

  ASSERT_EQ(log_.tail(), 8256u);  // 40 B, pad to 4096, 40 B, pad to 8192, 40 B, 24 B
  std::vector<uint8_t> media(log_.tail());
  dev_.RawRead(0, media);
  EXPECT_EQ(Fnv1a(media), 0x21D743D751316BD8u);
}

}  // namespace
}  // namespace demi
