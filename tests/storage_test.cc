// Tests for the storage substrate: SimBlockDevice and LogDevice.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/runtime/scheduler.h"
#include "src/storage/log_device.h"
#include "src/storage/sim_block_device.h"

namespace demi {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

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
  EXPECT_EQ(dev_.PollCompletions(comps), 0u);  // async: latency not elapsed
  clock_.Advance(100 * kMicrosecond);
  ASSERT_EQ(dev_.PollCompletions(comps), 1u);
  EXPECT_EQ(comps[0].cookie, 1u);

  std::vector<uint8_t> out(4096, 0);
  ASSERT_EQ(dev_.SubmitRead(3, out, 2), Status::kOk);
  clock_.Advance(100 * kMicrosecond);
  ASSERT_EQ(dev_.PollCompletions(comps), 1u);
  EXPECT_EQ(out, data);
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
  const size_t n = dev_.PollCompletions(comps);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(comps[0].cookie, 10u);
  EXPECT_EQ(comps[1].cookie, 11u);
  EXPECT_EQ(comps[2].cookie, 12u);
}

// LogDevice tests drive coroutines on a scheduler with a background poller fiber, the way
// Cattree does.
class LogDeviceTest : public ::testing::Test {
 protected:
  LogDeviceTest()
      : dev_(SimBlockDevice::Config{}, clock_), sched_(clock_), log_(dev_, sched_) {}

  // Runs the scheduler until `done` while advancing the virtual clock to device completions.
  void RunUntil(const bool& done) {
    for (int guard = 0; guard < 100000 && !done; guard++) {
      log_.PollDevice();
      sched_.Poll();
      if (!done && log_.HasPendingIo()) {
        const TimeNs next = dev_.NextCompletionTime();
        if (next > clock_.Now()) {
          clock_.SetTime(next);
        }
      }
    }
    ASSERT_TRUE(done) << "log operation did not finish";
  }

  uint64_t AppendSync(const std::string& payload, Status* status_out = nullptr) {
    bool done = false;
    uint64_t offset = UINT64_MAX;
    sched_.Spawn([](LogDevice* log, std::string data, bool* done_out, uint64_t* offset_out,
                    Status* st) -> Task<void> {
      auto r = co_await log->Append(Bytes(data));
      if (st != nullptr) {
        *st = r.error();
      }
      if (r.ok()) {
        *offset_out = *r;
      }
      *done_out = true;
    }(&log_, payload, &done, &offset, status_out));
    RunUntil(done);
    return offset;
  }

  Result<LogDevice::ReadResult> ReadSync(uint64_t cursor) {
    bool done = false;
    Result<LogDevice::ReadResult> result = Status::kInternal;
    sched_.Spawn([](LogDevice* log, uint64_t at, bool* done_out,
                    Result<LogDevice::ReadResult>* out) -> Task<void> {
      *out = co_await log->Read(at);
      *done_out = true;
    }(&log_, cursor, &done, &result));
    RunUntil(done);
    return result;
  }

  VirtualClock clock_;
  SimBlockDevice dev_;
  Scheduler sched_;
  LogDevice log_;
};

TEST_F(LogDeviceTest, AppendThenReadBack) {
  const uint64_t off = AppendSync("hello log");
  EXPECT_EQ(off, 0u);
  auto r = ReadSync(off);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->payload.begin(), r->payload.end()), "hello log");
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
    seen.emplace_back(r->payload.begin(), r->payload.end());
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
  EXPECT_EQ(std::string(r->payload.begin(), r->payload.end()), big);
}

TEST_F(LogDeviceTest, TruncateGarbageCollects) {
  AppendSync("old");
  const uint64_t second = AppendSync("new");
  ASSERT_EQ(log_.Truncate(second), Status::kOk);
  EXPECT_EQ(ReadSync(0).error(), Status::kInvalidArgument);
  auto r = ReadSync(second);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->payload.begin(), r->payload.end()), "new");
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
  bool done = false;
  std::string first;
  sched_.Spawn([](LogDevice* log, bool* done_out, std::string* out) -> Task<void> {
    auto r = co_await log->Read(0);
    EXPECT_TRUE(r.ok());
    out->assign(r->payload.begin(), r->payload.end());
    *done_out = true;
  }(&recovered, &done, &first));
  for (int guard = 0; guard < 100000 && !done; guard++) {
    recovered.PollDevice();
    sched_.Poll();
    if (!done) {
      const TimeNs next = dev_.NextCompletionTime();
      if (next > clock_.Now()) {
        clock_.SetTime(next);
      }
    }
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(first, "persisted-one");
}

TEST_F(LogDeviceTest, RecoveryAfterAppendContinuesLog) {
  AppendSync("before-crash");
  LogDevice recovered(dev_, sched_);
  ASSERT_EQ(recovered.Recover(), Status::kOk);

  bool done = false;
  sched_.Spawn([](LogDevice* log, bool* done_out) -> Task<void> {
    auto r = co_await log->Append(Bytes("after-crash"));
    EXPECT_TRUE(r.ok());
    *done_out = true;
  }(&recovered, &done));
  for (int guard = 0; guard < 100000 && !done; guard++) {
    recovered.PollDevice();
    sched_.Poll();
    if (!done) {
      const TimeNs next = dev_.NextCompletionTime();
      if (next > clock_.Now()) {
        clock_.SetTime(next);
      }
    }
  }
  ASSERT_TRUE(done);

  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < 2; i++) {
    bool rdone = false;
    sched_.Spawn([](LogDevice* log, uint64_t at, bool* done_out,
                    std::vector<std::string>* seen_out, uint64_t* next) -> Task<void> {
      auto r = co_await log->Read(at);
      EXPECT_TRUE(r.ok());
      seen_out->emplace_back(r->payload.begin(), r->payload.end());
      *next = r->next_cursor;
      *done_out = true;
    }(&recovered, cursor, &rdone, &seen, &cursor));
    for (int guard = 0; guard < 100000 && !rdone; guard++) {
      recovered.PollDevice();
      sched_.Poll();
      if (!rdone) {
        const TimeNs next = dev_.NextCompletionTime();
        if (next > clock_.Now()) {
          clock_.SetTime(next);
        }
      }
    }
    ASSERT_TRUE(rdone);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"before-crash", "after-crash"}));
}

TEST_F(LogDeviceTest, ConcurrentAppendsSerialize) {
  // Several application coroutines appending at once must not interleave corruptly.
  constexpr int kAppenders = 8;
  int finished = 0;
  for (int i = 0; i < kAppenders; i++) {
    sched_.Spawn([](LogDevice* log, int id, int* finished_out) -> Task<void> {
      std::string payload = "appender-" + std::to_string(id);
      auto r = co_await log->Append(
          std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(payload.data()),
                                   payload.size()));
      EXPECT_TRUE(r.ok());
      (*finished_out)++;
    }(&log_, i, &finished));
  }
  for (int guard = 0; guard < 100000 && finished < kAppenders; guard++) {
    log_.PollDevice();
    sched_.Poll();
    const TimeNs next = dev_.NextCompletionTime();
    if (next > clock_.Now()) {
      clock_.SetTime(next);
    }
  }
  ASSERT_EQ(finished, kAppenders);

  // All records readable, each exactly once.
  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < kAppenders; i++) {
    auto r = ReadSync(cursor);
    ASSERT_TRUE(r.ok());
    seen.emplace_back(r->payload.begin(), r->payload.end());
    cursor = r->next_cursor;
  }
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kAppenders; i++) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), "appender-" + std::to_string(i)), seen.end());
  }
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

}  // namespace
}  // namespace demi
