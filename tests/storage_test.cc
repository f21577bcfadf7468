// Tests for the storage substrate: SimBlockDevice and LogDevice.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/faults/fault_injector.h"
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

// Group commit: packed appends started while a write is in flight reach the device as one
// more write, and leave exactly the bytes, offsets and epochs the same appends leave when made
// one at a time.
TEST_F(LogDeviceTest, GroupCommitWritesTheSameBytes) {
  const std::vector<std::string> payloads = {
      "first",      std::string(5000, 'x'), "",  "fourth-record",
      std::string(4071, 'y'), "z",          std::string(9000, 'w')};
  std::vector<LogDevice::Io> ios(payloads.size());
  for (size_t i = 0; i < payloads.size(); i++) {
    log_.StartAppend(ios[i], OneSlice(payloads[i]));
  }
  ASSERT_TRUE(DriveLogs(clock_, sched_, dev_, {&log_},
                        [&] { return std::all_of(ios.begin(), ios.end(), IsDone); }));
  EXPECT_EQ(dev_.GetStats().writes, 2u);  // the first append alone, then the other six

  SimBlockDevice one_by_one_dev(SimBlockDevice::Config{}, clock_);
  LogDevice one_by_one(one_by_one_dev, sched_);
  for (size_t i = 0; i < payloads.size(); i++) {
    SCOPED_TRACE(i);
    LogDevice::Io io;
    one_by_one.StartAppend(io, OneSlice(payloads[i]));
    ASSERT_TRUE(DriveLogs(clock_, sched_, one_by_one_dev, {&one_by_one},
                          [&] { return IsDone(io); }));
    ASSERT_EQ(ios[i].status, Status::kOk);
    ASSERT_EQ(io.status, Status::kOk);
    EXPECT_EQ(ios[i].offset, io.offset);
    auto r = ReadSync(ios[i].offset);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Str(r->payload), payloads[i]);
  }
  EXPECT_EQ(one_by_one_dev.GetStats().writes, payloads.size());
  ASSERT_EQ(log_.tail(), one_by_one.tail());
  const size_t bs = dev_.config().block_size;
  std::vector<uint8_t> batched((log_.tail() + bs - 1) / bs * bs);
  std::vector<uint8_t> sequential(batched.size());
  dev_.RawRead(0, batched);
  one_by_one_dev.RawRead(0, sequential);
  EXPECT_TRUE(batched == sequential);
  EXPECT_EQ(log_.stats().last_epoch, one_by_one.stats().last_epoch);
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


// The process's resident set, from /proc/self/statm.
size_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  unsigned long size = 0;
  unsigned long resident = 0;
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    EXPECT_EQ(std::fscanf(f, "%lu %lu", &size, &resident), 2);
    std::fclose(f);
  }
  return resident * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

// The media costs memory only where it was written: a 1 GiB device adds next to nothing to the
// resident set, and its unwritten blocks read as zeros through the device and RawRead alike.
TEST(SparseMediaTest, UnwrittenBlocksCostNoMemoryAndReadAsZeros) {
  VirtualClock clock;
  SimBlockDevice::Config cfg;
  cfg.num_blocks = (size_t{1} << 30) / cfg.block_size;
  const size_t before = ResidentBytes();
  SimBlockDevice dev(cfg, clock);
  EXPECT_LT(ResidentBytes() - std::min(before, ResidentBytes()), size_t{16} << 20);
  EXPECT_EQ(dev.CapacityBytes(), size_t{1} << 30);

  std::vector<uint8_t> block(cfg.block_size, 0xAB);
  ASSERT_EQ(dev.SubmitWrite(7, block, /*cookie=*/1), Status::kOk);
  std::vector<uint8_t> read(2 * cfg.block_size, 0xCD);
  ASSERT_EQ(dev.SubmitRead(cfg.num_blocks - 2, read, /*cookie=*/2), Status::kOk);
  clock.Advance(kSecond);
  SimBlockDevice::Completion comps[4];
  ASSERT_EQ(dev.PollCompletions(comps, 0, clock.Now()), 2u);
  EXPECT_TRUE(std::all_of(read.begin(), read.end(), [](uint8_t b) { return b == 0; }));
  std::vector<uint8_t> raw(3 * cfg.block_size, 0xEF);
  dev.RawRead(6 * cfg.block_size, raw);
  for (size_t i = 0; i < raw.size(); i++) {
    ASSERT_EQ(raw[i], i / cfg.block_size == 1 ? 0xAB : 0) << "byte " << i;
  }
}

// The circular log on a 16-block partition, with records of 1,528 bytes on the media.
class WrapLogTest : public ::testing::Test {
 protected:
  static constexpr size_t kBlocks = 16;
  static constexpr size_t kRecord = 1528;  // 24 B header + 1,504 B payload
  static constexpr size_t kLap0 = kBlocks * 4096 / kRecord;  // records before the wrap: 42

  WrapLogTest() : dev_(Config(), clock_), sched_(clock_), log_(dev_, sched_) {}

  static SimBlockDevice::Config Config() {
    SimBlockDevice::Config cfg;
    cfg.num_blocks = kBlocks;
    return cfg;
  }

  static std::string Payload(size_t i, size_t len = kRecord - LogDevice::kHeaderSize) {
    return std::string(len, static_cast<char>('a' + i % 26));
  }

  LogDevice::Io& Append(LogDevice& log, const std::string& payload) {
    ios_.emplace_back();
    LogDevice::Io& io = ios_.back();
    log.StartAppend(io, OneSlice(payload));
    EXPECT_TRUE(DriveLogs(clock_, sched_, dev_, {&log}, [&] { return IsDone(io); }));
    return io;
  }

  // Reads every record from `log`'s head to its tail (a pad may lead to it).
  std::vector<std::string> ReadAll(LogDevice& log) {
    std::vector<std::string> out;
    for (uint64_t cursor = log.head(); cursor < log.tail();) {
      LogDevice::Io io;
      log.StartRead(io, cursor, alloc_);
      EXPECT_TRUE(DriveLogs(clock_, sched_, dev_, {&log}, [&] { return IsDone(io); }));
      if (io.status != Status::kOk) {
        EXPECT_EQ(io.status, Status::kEndOfFile) << "cursor " << cursor;
        break;
      }
      out.push_back(Str(io.record.payload));
      cursor = io.record.next_cursor;
    }
    return out;
  }

  VirtualClock clock_;
  SimBlockDevice dev_;
  Scheduler sched_;
  LogDevice log_;
  PoolAllocator alloc_;
  std::deque<LogDevice::Io> ios_;
  std::vector<std::string> payloads_;
};

// Truncate frees space: a full log takes appends again once its head moves, they go to the
// partition's start, and offsets keep growing. An append that would overwrite a byte not yet
// truncated still fails.
TEST_F(WrapLogTest, TruncateFreesSpaceAndAppendsWrap) {
  std::vector<uint64_t> offsets;
  for (size_t i = 0; i < kLap0; i++) {
    payloads_.push_back(Payload(i));
    ASSERT_EQ(Append(log_, payloads_.back()).status, Status::kOk);
    offsets.push_back(ios_.back().offset);
  }
  EXPECT_EQ(Append(log_, Payload(kLap0)).status, Status::kNoBufferSpace);
  ASSERT_EQ(log_.Truncate(offsets[3]), Status::kOk);  // frees the partition's first block
  EXPECT_EQ(log_.FreeBytes(), log_.CapacityBytes() - (log_.tail() - offsets[3]));
  payloads_.push_back(Payload(kLap0));
  LogDevice::Io& wrapped = Append(log_, payloads_.back());
  ASSERT_EQ(wrapped.status, Status::kOk);
  EXPECT_EQ(wrapped.offset, log_.CapacityBytes()) << "the record starts the second lap";
  // The pad after record 41 skips to the partition end; a reader follows it.
  const std::vector<std::string> live(payloads_.begin() + 3, payloads_.end());
  EXPECT_EQ(ReadAll(log_), live);
  // Two more records would reach into record 3, which is not truncated.
  payloads_.push_back(Payload(kLap0 + 1));
  ASSERT_EQ(Append(log_, payloads_.back()).status, Status::kOk);
  EXPECT_EQ(Append(log_, Payload(kLap0 + 2)).status, Status::kNoBufferSpace);
  EXPECT_EQ(log_.tail() - log_.head(), log_.CapacityBytes() - log_.FreeBytes());
}

// Recovery of a wrapped partition after a torn write at the wrap point: the first write of the
// second lap tears, so its record is not recovered; recovery starts at the oldest intact record
// the tear left of the first lap, follows the pad to the partition end, and the recovered log
// takes appends at the second lap's start.
TEST_F(WrapLogTest, RecoveryAfterATornWriteAtTheWrapPoint) {
  for (size_t i = 0; i < kLap0; i++) {
    payloads_.push_back(Payload(i));
    ASSERT_EQ(Append(log_, payloads_.back()).status, Status::kOk);
  }
  ASSERT_EQ(log_.Truncate(ios_[3].offset), Status::kOk);
  LogDevice::RetryPolicy no_retries;
  no_retries.max_retries = 0;
  log_.set_retry_policy(no_retries);
  // One block of record, so no tear (a prefix of it) can hold it whole.
  const std::string torn = Payload(99, 4096 - LogDevice::kHeaderSize);
  LogDevice::Io io;
  log_.StartAppend(io, OneSlice(torn));  // the wrap write is submitted now, without faults
  FaultPlan plan;
  plan.disk_torn = 1.0;
  FaultInjector faults(plan);
  dev_.SetFaultInjector(&faults);
  ASSERT_TRUE(DriveLogs(clock_, sched_, dev_, {&log_}, [&] { return IsDone(io); }));
  dev_.SetFaultInjector(nullptr);
  EXPECT_EQ(io.status, Status::kIoError);
  EXPECT_EQ(faults.GetStats().disk_torn_writes, 1u);
  EXPECT_EQ(log_.tail(), log_.CapacityBytes()) << "the wrap write is durable";

  LogDevice recovered(dev_, sched_);
  ASSERT_EQ(recovered.Recover(), Status::kOk);
  EXPECT_EQ(recovered.tail(), recovered.CapacityBytes());
  const std::vector<std::string> read = ReadAll(recovered);
  // The tear wrote a prefix of the partition's first block: every record from the first one
  // past that block is intact, and so is what the prefix did not reach.
  ASSERT_GE(read.size(), kLap0 - 3);
  EXPECT_TRUE(std::equal(read.begin(), read.end(), payloads_.end() - read.size()));
  EXPECT_EQ(recovered.head(), (kLap0 - read.size()) * kRecord);

  // Truncation is not on the media, so the recovered log truncates again; appends then
  // continue at the second lap's start, after the first lap's records.
  ASSERT_EQ(recovered.Truncate(3 * kRecord), Status::kOk);
  payloads_.push_back(Payload(kLap0));
  LogDevice::Io& after = Append(recovered, payloads_.back());
  ASSERT_EQ(after.status, Status::kOk);
  EXPECT_EQ(after.offset, recovered.CapacityBytes());
  const std::vector<std::string> expected(payloads_.begin() + 3, payloads_.end());
  EXPECT_EQ(ReadAll(recovered), expected);
  LogDevice again(dev_, sched_);
  ASSERT_EQ(again.Recover(), Status::kOk);
  EXPECT_EQ(ReadAll(again), expected);
}

}  // namespace
}  // namespace demi
