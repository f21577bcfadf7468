// Tests for the zero-copy network×storage splice path (docs/STORAGE.md):
//  - LogDevice scatter-gather append (AppendSg) and zero-copy read (Read)
//  - CRC+epoch-validated recovery, including the torn-write regression the format exists for
//  - PartitionedLog geometry, isolation, and epoch-stitched multi-partition recovery
//  - Catnip::Splice end to end over real TCP in both directions

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catnip.h"
#include "src/memory/pool_allocator.h"
#include "src/netsim/sim_network.h"
#include "src/runtime/scheduler.h"
#include "src/storage/log_device.h"
#include "src/storage/partitioned_log.h"
#include "src/storage/sim_block_device.h"
#include "tests/log_driver.h"

namespace demi {
namespace {

// --- LogDevice scatter-gather / zero-copy unit tests (virtual clock) ---

class SpliceLogTest : public ::testing::Test {
 protected:
  SpliceLogTest() : dev_(SimBlockDevice::Config{}, clock_), sched_(clock_), log_(dev_, sched_) {}

  void RunUntil(const LogDevice::Io& io) {
    ASSERT_TRUE(DriveLogs(clock_, sched_, dev_, {&log_}, [&] { return IsDone(io); }))
        << "log operation did not finish";
  }

  // Synchronous wrapper around StartAppendSg for a set of slices backed by `parts`.
  Status AppendSgSync(const std::vector<std::string>& parts, uint64_t* offset_out = nullptr) {
    std::vector<std::span<const uint8_t>> slices;
    slices.reserve(parts.size());
    for (const std::string& s : parts) {
      slices.push_back(Bytes(s));
    }
    LogDevice::Io io;
    log_.StartAppendSg(io, slices);
    RunUntil(io);
    if (offset_out != nullptr) {
      *offset_out = io.status == Status::kOk ? io.offset : UINT64_MAX;
    }
    return io.status;
  }

  Status AppendSync(const std::string& payload) {
    LogDevice::Io io;
    log_.StartAppend(io, OneSlice(payload));
    RunUntil(io);
    return io.status;
  }

  // Reads the record at *cursor (advancing it); empty string on any error, with the status in
  // *status_out.
  std::string ReadSync(uint64_t* cursor, Status* status_out = nullptr) {
    LogDevice::Io io;
    log_.StartRead(io, *cursor, alloc_);
    RunUntil(io);
    std::string payload;
    if (io.status == Status::kOk) {
      payload.assign(reinterpret_cast<const char*>(io.record.payload.data()),
                     io.record.payload.size());
      *cursor = io.record.next_cursor;
    }
    if (status_out != nullptr) {
      *status_out = io.status;
    }
    return payload;
  }

  VirtualClock clock_;
  SimBlockDevice dev_;
  Scheduler sched_;
  LogDevice log_;
  PoolAllocator alloc_;
};

TEST_F(SpliceLogTest, AppendSgRoundTripsWithoutBounce) {
  const std::vector<std::string> parts = {"splice ", "is ", "zero ", "copy"};
  uint64_t offset = 0;
  ASSERT_EQ(AppendSgSync(parts, &offset), Status::kOk);
  EXPECT_EQ(log_.stats().sg_appends, 1u);
  EXPECT_EQ(log_.stats().bounce_bytes, 0u) << "no payload byte may be flattened host-side";
  EXPECT_GT(log_.stats().pad_bytes, 0u) << "SG records block-align via pad markers";
  // The record starts on a block boundary so the gather DMA never merges with cached bytes.
  EXPECT_EQ(offset % dev_.config().block_size, 0u);

  uint64_t cursor = log_.head();
  EXPECT_EQ(ReadSync(&cursor), "splice is zero copy");
  Status status = Status::kOk;
  ReadSync(&cursor, &status);
  EXPECT_EQ(status, Status::kEndOfFile);
}

TEST_F(SpliceLogTest, SgAndByteAppendsInterleave) {
  // Byte append leaves an unaligned tail; the SG record must pad up to the next block and a
  // later byte append must land right after the SG record — all readable in order.
  ASSERT_EQ(AppendSync("first"), Status::kOk);
  ASSERT_EQ(AppendSgSync({"second-", "gathered"}), Status::kOk);
  ASSERT_EQ(AppendSync("third"), Status::kOk);
  EXPECT_EQ(log_.stats().bounce_bytes, 0u);

  uint64_t cursor = log_.head();
  EXPECT_EQ(ReadSync(&cursor), "first");
  EXPECT_EQ(ReadSync(&cursor), "second-gathered");
  EXPECT_EQ(ReadSync(&cursor), "third");
  Status status = Status::kOk;
  ReadSync(&cursor, &status);
  EXPECT_EQ(status, Status::kEndOfFile);
}

TEST_F(SpliceLogTest, AppendSgFlattensOnlyBeyondSglBudget) {
  // More slices than the device SGL can take: the append must still succeed, but through the
  // counted bounce fallback — the invariant perf gates assert on (bounce_bytes == 0) is only
  // honest if the counter actually moves when flattening happens.
  std::vector<std::string> parts(SimBlockDevice::kMaxWritevSegments + 8, "x");
  ASSERT_EQ(AppendSgSync(parts), Status::kOk);
  EXPECT_GT(log_.stats().bounce_bytes, 0u);
  uint64_t cursor = log_.head();
  EXPECT_EQ(ReadSync(&cursor), std::string(parts.size(), 'x'));
}

TEST_F(SpliceLogTest, ReadReturnsViewOverOneAllocation) {
  const std::string payload(5000, 'z');  // spans two blocks
  ASSERT_EQ(AppendSgSync({payload}), Status::kOk);

  NullDmaRegistrar reg;
  PoolAllocator alloc(reg);
  Status status = Status::kInternal;
  {
    LogDevice::Io io;
    log_.StartRead(io, log_.head(), alloc);
    RunUntil(io);
    const Buffer& got = io.record.payload;
    if (io.status != Status::kOk) {
      status = io.status;
    } else {
      const bool match = got.size() == payload.size() &&
                         std::memcmp(got.data(), payload.data(), payload.size()) == 0;
      // The whole payload lies inside the one pool object the device read into.
      const bool one_allocation = alloc.ObjectSize(got.data()) >= got.size();
      status = match && one_allocation ? Status::kOk : Status::kInternal;
    }
  }  // the Buffer view dies here; the pool must drain back to zero
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(alloc.GetStats().live_objects, 0u) << "the zc view must release its allocation";
}

// The satellite-b regression: a torn write forges a plausible [magic][len] prefix on the media
// while the op errors terminally. Pre-CRC recovery trusted magic+len and resurrected the torn
// record after restart; epoch+CRC validation must refuse it.
TEST_F(SpliceLogTest, TornTerminalWriteIsNotRecoveredAfterRestart) {
  FaultPlan plan;
  plan.seed = 5;
  plan.disk_torn = 1.0;  // every write tears: a prefix lands, the op reports an error
  FaultInjector faults(plan);
  dev_.SetFaultInjector(&faults);
  LogDevice::RetryPolicy no_retries;
  no_retries.max_retries = 0;
  log_.set_retry_policy(no_retries);

  EXPECT_NE(AppendSync(std::string(3000, 'T')), Status::kOk);
  EXPECT_EQ(log_.stats().io_terminal_errors, 1u);
  EXPECT_EQ(log_.tail(), 0u) << "a failed append must not advance the tail";
  dev_.SetFaultInjector(nullptr);

  // "Restart": a fresh LogDevice over the same media rebuilds its state by scanning.
  LogDevice recovered(dev_, sched_);
  ASSERT_EQ(recovered.Recover(), Status::kOk);
  EXPECT_EQ(recovered.tail(), 0u) << "torn garbage with a valid-looking header was recovered";
}

// Tail-block cache coherence under retry: attempts that tore prefix garbage onto the media
// must not poison later successful appends — the cache, not the media, is the source of truth
// for the partial tail block.
TEST_F(SpliceLogTest, TornRetriesLeaveTailCacheCoherent) {
  ASSERT_EQ(AppendSync("durable-before"), Status::kOk);

  FaultPlan plan;
  plan.seed = 7;
  plan.disk_torn = 1.0;
  FaultInjector faults(plan);
  dev_.SetFaultInjector(&faults);
  LogDevice::RetryPolicy fast;
  fast.max_retries = 2;
  fast.initial_backoff = kMicrosecond;
  log_.set_retry_policy(fast);
  EXPECT_NE(AppendSync("never-lands"), Status::kOk);  // all attempts torn -> terminal
  EXPECT_GT(log_.stats().io_retries, 0u);
  dev_.SetFaultInjector(nullptr);

  ASSERT_EQ(AppendSync("durable-after"), Status::kOk);
  uint64_t cursor = log_.head();
  EXPECT_EQ(ReadSync(&cursor), "durable-before");
  EXPECT_EQ(ReadSync(&cursor), "durable-after");
  Status status = Status::kOk;
  ReadSync(&cursor, &status);
  EXPECT_EQ(status, Status::kEndOfFile) << "torn remnants must not read as records";

  // And the media itself agrees: a fresh scan recovers exactly the two durable records.
  std::vector<LogDevice::RecordInfo> records;
  LogDevice::ScanPartition(dev_, LogPartition{}, &records);
  EXPECT_EQ(records.size(), 2u);
}

// --- PartitionedLog: geometry, isolation, stitched recovery ---

TEST(PartitionedLogTest, EpochStitchedRecoveryPreservesCrossPartitionOrder) {
  VirtualClock clock;
  SimBlockDevice dev(SimBlockDevice::Config{}, clock);
  Scheduler sched(clock);
  PartitionedLog plog(dev, 2);
  LogDevice log0(dev, sched, plog.partition(0), &plog.epoch());
  LogDevice log1(dev, sched, plog.partition(1), &plog.epoch());

  // Interleave appends across the two partitions; the shared epoch must order them globally.
  auto append = [&](LogDevice& log, const std::string& payload) {
    LogDevice::Io io;
    log.StartAppend(io, OneSlice(payload));
    DriveLogs(clock, sched, dev, {&log0, &log1}, [&] { return IsDone(io); });
    ASSERT_EQ(io.status, Status::kOk);
  };
  const std::vector<std::pair<int, std::string>> writes = {
      {0, "a0"}, {1, "b0"}, {1, "b1"}, {0, "a1"}, {0, "a2"}, {1, "b2"}};
  for (const auto& [part, payload] : writes) {
    append(part == 0 ? log0 : log1, payload);
  }

  std::vector<PartitionedLog::StitchedRecord> records;
  plog.RecoverAll(&records);
  ASSERT_EQ(records.size(), writes.size());
  for (size_t i = 0; i < writes.size(); i++) {
    EXPECT_EQ(records[i].partition, static_cast<uint32_t>(writes[i].first)) << "record " << i;
    const std::vector<uint8_t> payload = plog.ReadPayload(records[i]);
    EXPECT_EQ(std::string(payload.begin(), payload.end()), writes[i].second) << "record " << i;
    if (i > 0) {
      EXPECT_GT(records[i].epoch, records[i - 1].epoch);
    }
  }
}

// RecoverAll still orders records by epoch when a partition wrapped: partition 0 fills its 8
// blocks with one-block records, truncates and wraps over its oldest three, while partition 1
// appends between them. Recovery returns every surviving record in append order.
TEST(PartitionedLogTest, RecoverAllOrdersRecordsAcrossAWrappedPartition) {
  VirtualClock clock;
  SimBlockDevice::Config cfg;
  cfg.num_blocks = 16;
  SimBlockDevice dev(cfg, clock);
  Scheduler sched(clock);
  PartitionedLog plog(dev, 2);
  LogDevice log0(dev, sched, plog.partition(0), &plog.epoch());
  LogDevice log1(dev, sched, plog.partition(1), &plog.epoch());
  std::vector<std::pair<uint32_t, std::string>> appended;
  std::vector<uint64_t> offsets0;
  auto append = [&](uint32_t part, std::string payload) {
    LogDevice& log = part == 0 ? log0 : log1;
    LogDevice::Io io;
    log.StartAppend(io, OneSlice(payload));
    ASSERT_TRUE(DriveLogs(clock, sched, dev, {&log0, &log1}, [&] { return IsDone(io); }));
    ASSERT_EQ(io.status, Status::kOk);
    if (part == 0) {
      offsets0.push_back(io.offset);
    }
    appended.emplace_back(part, std::move(payload));
  };
  const size_t one_block = cfg.block_size - LogDevice::kHeaderSize;
  for (int i = 0; i < 8; i++) {
    append(0, std::string(one_block, static_cast<char>('a' + i)));
    append(1, "b" + std::to_string(i));
  }
  ASSERT_EQ(log0.Truncate(offsets0[3]), Status::kOk);
  for (int i = 8; i < 11; i++) {
    append(1, "b" + std::to_string(i));
    append(0, std::string(one_block, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(offsets0.back(), 10 * cfg.block_size) << "partition 0 is on its second lap";

  std::vector<PartitionedLog::StitchedRecord> records;
  plog.RecoverAll(&records);
  // The second lap overwrote partition 0's first three records.
  std::vector<std::pair<uint32_t, std::string>> expected;
  int overwritten = 0;
  for (const auto& rec : appended) {
    if (rec.first == 0 && overwritten < 3) {
      overwritten++;
      continue;
    }
    expected.push_back(rec);
  }
  ASSERT_EQ(records.size(), expected.size());
  for (size_t i = 0; i < expected.size(); i++) {
    EXPECT_EQ(records[i].partition, expected[i].first) << "record " << i;
    const std::vector<uint8_t> payload = plog.ReadPayload(records[i]);
    EXPECT_TRUE(std::string(payload.begin(), payload.end()) == expected[i].second)
        << "record " << i;
    if (i > 0) {
      EXPECT_GT(records[i].epoch, records[i - 1].epoch);
    }
  }
}

TEST(PartitionedLogTest, PartitionsAreCapacityIsolated) {
  VirtualClock clock;
  SimBlockDevice::Config cfg;
  cfg.num_blocks = 16;  // tiny device: 2 partitions x 8 blocks
  SimBlockDevice dev(cfg, clock);
  Scheduler sched(clock);
  PartitionedLog plog(dev, 2);
  EXPECT_EQ(plog.partition(0).num_blocks, 8u);
  EXPECT_EQ(plog.partition(1).num_blocks, 8u);
  LogDevice log0(dev, sched, plog.partition(0), &plog.epoch());
  EXPECT_EQ(log0.CapacityBytes(), 8 * cfg.block_size);

  auto append = [&](const std::string& payload) {
    LogDevice::Io io;
    log0.StartAppend(io, OneSlice(payload));
    DriveLogs(clock, sched, dev, {&log0}, [&] { return IsDone(io); });
    return IsDone(io) ? io.status : Status::kInternal;
  };
  // Fill partition 0 until it rejects; it must reject from ITS capacity, never spill into
  // partition 1's block range.
  Status status = Status::kOk;
  size_t accepted = 0;
  for (int i = 0; i < 64 && status == Status::kOk; i++) {
    status = append(std::string(1024, 'q'));
    if (status == Status::kOk) {
      accepted++;
    }
  }
  EXPECT_EQ(status, Status::kNoBufferSpace);
  EXPECT_GT(accepted, 0u);
  EXPECT_LE(log0.tail(), log0.CapacityBytes());
  // Partition 1's range is still virgin media: scanning it recovers nothing.
  std::vector<LogDevice::RecordInfo> p1_records;
  LogDevice::ScanPartition(dev, plog.partition(1), &p1_records);
  EXPECT_TRUE(p1_records.empty());
}

// --- Catnip::Splice end to end (real TCP over the simulated fabric) ---

QResult WaitStepped(LibOS& self, QToken qt, std::vector<LibOS*> world,
                    int max_steps = 2'000'000) {
  for (int i = 0; i < max_steps; i++) {
    for (LibOS* os : world) {
      os->PollOnce();
    }
    if (self.IsDone(qt)) {
      auto r = self.TryTake(qt);
      EXPECT_TRUE(r.ok());
      return r.ok() ? *r : QResult{};
    }
  }
  ADD_FAILURE() << "token did not complete";
  return QResult{};
}

class CatnipSpliceTest : public ::testing::Test {
 protected:
  CatnipSpliceTest()
      : net_(LinkConfig{}, 11),
        disk_(SimBlockDevice::Config{}, clock_),
        server_(net_,
                Catnip::Config{MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{},
                               &disk_},
                clock_),
        client_(net_,
                Catnip::Config{MacAddr{2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{},
                               nullptr},
                clock_) {
    server_.ethernet().arp().Insert(client_.local_ip(), MacAddr{2});
    client_.ethernet().arp().Insert(server_.local_ip(), MacAddr{1});
  }

  std::vector<LibOS*> World() { return {&server_, &client_}; }

  // Establishes a client connection to server_:7100; returns {client qd, server conn qd}.
  std::pair<QueueDesc, QueueDesc> Connect() {
    auto sqd = server_.Socket(SocketType::kStream);
    EXPECT_TRUE(sqd.ok());
    EXPECT_EQ(server_.Bind(*sqd, {server_.local_ip(), 7100}), Status::kOk);
    EXPECT_EQ(server_.Listen(*sqd, 8), Status::kOk);
    auto accept_qt = server_.Accept(*sqd);
    EXPECT_TRUE(accept_qt.ok());
    auto cqd = client_.Socket(SocketType::kStream);
    EXPECT_TRUE(cqd.ok());
    auto connect_qt = client_.Connect(*cqd, {server_.local_ip(), 7100});
    EXPECT_TRUE(connect_qt.ok());
    EXPECT_EQ(WaitStepped(client_, *connect_qt, World()).status, Status::kOk);
    QResult acc = WaitStepped(server_, *accept_qt, World());
    EXPECT_EQ(acc.status, Status::kOk);
    return {*cqd, acc.new_qd};
  }

  std::vector<uint8_t> PatternChunk(size_t chunk, size_t len) {
    std::vector<uint8_t> data(len);
    for (size_t i = 0; i < len; i++) {
      data[i] = static_cast<uint8_t>(chunk * 41 + i * 7);
    }
    return data;
  }

  MonotonicClock clock_;
  SimNetwork net_;
  SimBlockDevice disk_;
  Catnip server_;
  Catnip client_;
};

TEST_F(CatnipSpliceTest, NetToDiskSpliceIsByteExactAndZeroCopy) {
  auto [cqd, sconn] = Connect();
  auto fqd = server_.Open("relay-log");
  ASSERT_TRUE(fqd.ok());

  auto splice_qt = server_.Splice(sconn, *fqd);
  ASSERT_TRUE(splice_qt.ok());

  // Client streams patterned chunks, then half-closes; the splice must drain every byte into
  // the log and complete at the FIN.
  constexpr size_t kChunks = 40;
  std::vector<uint8_t> sent;
  for (size_t c = 0; c < kChunks; c++) {
    const std::vector<uint8_t> chunk = PatternChunk(c, 512 + (c * 97) % 1024);
    sent.insert(sent.end(), chunk.begin(), chunk.end());
    void* buf = client_.DmaMalloc(chunk.size());
    ASSERT_NE(buf, nullptr);
    std::memcpy(buf, chunk.data(), chunk.size());
    auto push_qt = client_.Push(cqd, Sgarray::Of(buf, static_cast<uint32_t>(chunk.size())));
    ASSERT_TRUE(push_qt.ok());
    EXPECT_EQ(WaitStepped(client_, *push_qt, World()).status, Status::kOk);
    client_.DmaFree(buf);
  }
  ASSERT_EQ(client_.Close(cqd), Status::kOk);

  QResult splice_r = WaitStepped(server_, *splice_qt, World());
  EXPECT_EQ(splice_r.status, Status::kOk);
  EXPECT_EQ(splice_r.bytes, sent.size());
  EXPECT_EQ(server_.storage()->log().stats().bounce_bytes, 0u)
      << "the TCP payload must reach the media through gather DMA, never a host flatten";
  EXPECT_GT(server_.storage()->log().stats().sg_appends, 0u);

  // Byte-exact readback: records concatenate to exactly the client's stream.
  auto rqd = server_.Open("relay-log");
  ASSERT_TRUE(rqd.ok());
  std::vector<uint8_t> stored;
  for (;;) {
    auto pop_qt = server_.Pop(*rqd);
    ASSERT_TRUE(pop_qt.ok());
    QResult r = WaitStepped(server_, *pop_qt, World());
    if (r.status == Status::kEndOfFile) {
      break;
    }
    ASSERT_EQ(r.status, Status::kOk);
    for (uint32_t i = 0; i < r.sga.num_segs; i++) {
      const uint8_t* p = static_cast<const uint8_t*>(r.sga.segs[i].buf);
      stored.insert(stored.end(), p, p + r.sga.segs[i].len);
    }
    server_.FreeSga(r.sga);
  }
  EXPECT_EQ(stored, sent);
}

TEST_F(CatnipSpliceTest, DiskToNetSpliceStreamsTheLog) {
  auto [cqd, sconn] = Connect();
  auto fqd = server_.Open("replay-log");
  ASSERT_TRUE(fqd.ok());

  // Seed the log through the regular push path.
  constexpr size_t kRecords = 12;
  std::vector<uint8_t> expected;
  for (size_t r = 0; r < kRecords; r++) {
    const std::vector<uint8_t> payload = PatternChunk(r, 700 + (r * 131) % 900);
    expected.insert(expected.end(), payload.begin(), payload.end());
    void* buf = server_.DmaMalloc(payload.size());
    ASSERT_NE(buf, nullptr);
    std::memcpy(buf, payload.data(), payload.size());
    auto push_qt = server_.Push(*fqd, Sgarray::Of(buf, static_cast<uint32_t>(payload.size())));
    ASSERT_TRUE(push_qt.ok());
    EXPECT_EQ(WaitStepped(server_, *push_qt, World()).status, Status::kOk);
    server_.DmaFree(buf);
  }

  auto splice_qt = server_.Splice(*fqd, sconn);
  ASSERT_TRUE(splice_qt.ok());

  // Client drains the stream while the splice runs.
  std::vector<uint8_t> received;
  while (received.size() < expected.size()) {
    auto pop_qt = client_.Pop(cqd);
    ASSERT_TRUE(pop_qt.ok());
    QResult r = WaitStepped(client_, *pop_qt, World());
    ASSERT_EQ(r.status, Status::kOk);
    for (uint32_t i = 0; i < r.sga.num_segs; i++) {
      const uint8_t* p = static_cast<const uint8_t*>(r.sga.segs[i].buf);
      received.insert(received.end(), p, p + r.sga.segs[i].len);
    }
    client_.FreeSga(r.sga);
  }
  EXPECT_EQ(received, expected);

  QResult splice_r = WaitStepped(server_, *splice_qt, World());
  EXPECT_EQ(splice_r.status, Status::kOk);
  EXPECT_EQ(splice_r.bytes, expected.size());
}

// Closing the source queue while the splice's append is on the disk: the splice completes once
// that record is durable, with kCancelled and the bytes it made durable.
TEST_F(CatnipSpliceTest, CloseDuringAnAppendEndsTheSpliceOnceItIsDurable) {
  auto [cqd, sconn] = Connect();
  auto fqd = server_.Open("relay-log");
  ASSERT_TRUE(fqd.ok());
  auto splice_qt = server_.Splice(sconn, *fqd);
  ASSERT_TRUE(splice_qt.ok());
  const std::vector<uint8_t> chunk = PatternChunk(0, 1000);
  void* buf = client_.DmaMalloc(chunk.size());
  ASSERT_NE(buf, nullptr);
  std::memcpy(buf, chunk.data(), chunk.size());
  ASSERT_TRUE(client_.Push(cqd, Sgarray::Of(buf, static_cast<uint32_t>(chunk.size()))).ok());
  client_.DmaFree(buf);
  for (int i = 0; i < 100000 && disk_.NextCompletionTime() == 0; i++) {
    client_.PollOnce();
    server_.PollOnce();
  }
  ASSERT_NE(disk_.NextCompletionTime(), 0) << "the splice never started its append";

  ASSERT_EQ(server_.Close(sconn), Status::kOk);
  EXPECT_FALSE(server_.IsDone(*splice_qt));
  QResult r = WaitStepped(server_, *splice_qt, World(), /*max_steps=*/200'000);
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_EQ(r.bytes, chunk.size());
  auto rqd = server_.Open("relay-log");
  ASSERT_TRUE(rqd.ok());
  auto pop_qt = server_.Pop(*rqd);
  ASSERT_TRUE(pop_qt.ok());
  QResult rec = WaitStepped(server_, *pop_qt, World());
  ASSERT_EQ(rec.status, Status::kOk);
  EXPECT_EQ(rec.sga.segs[0].len, chunk.size());
  server_.FreeSga(rec.sga);
}

TEST_F(CatnipSpliceTest, SpliceRejectsUnsupportedQueuePairs) {
  auto [cqd, sconn] = Connect();
  auto fqd = server_.Open("log");
  ASSERT_TRUE(fqd.ok());

  auto conn_conn = server_.Splice(sconn, sconn);
  EXPECT_EQ(conn_conn.error(), Status::kNotSupported);
  auto file_file = server_.Splice(*fqd, *fqd);
  EXPECT_EQ(file_file.error(), Status::kNotSupported);
  auto bad = server_.Splice(999, *fqd);
  EXPECT_EQ(bad.error(), Status::kBadQueueDescriptor);
  // A queue runs one splice at a time.
  ASSERT_TRUE(server_.Splice(sconn, *fqd).ok());
  EXPECT_EQ(server_.Splice(sconn, *fqd).error(), Status::kInvalidArgument);
  // A diskless Catnip has no log to splice with.
  auto client_sock = client_.Socket(SocketType::kStream);
  ASSERT_TRUE(client_sock.ok());
  auto no_disk = client_.Splice(cqd, *client_sock);
  EXPECT_EQ(no_disk.error(), Status::kNotSupported);
}

}  // namespace
}  // namespace demi
