// Unit tests for src/common: Result, bit ops, SPSC ring, clocks, RNG, histogram.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/common/spsc_ring.h"
#include "src/common/status.h"

namespace demi {
namespace {

TEST(StatusTest, NamesAreStable) {
  EXPECT_EQ(StatusName(Status::kOk), "Ok");
  EXPECT_EQ(StatusName(Status::kWouldBlock), "WouldBlock");
  EXPECT_EQ(StatusName(Status::kConnectionReset), "ConnectionReset");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.error(), Status::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::kNotFound;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Status::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r.value());
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, CopyAndAssign) {
  Result<std::string> a = std::string("hello");
  Result<std::string> b = a;
  EXPECT_EQ(*b, "hello");
  b = Result<std::string>(Status::kNoMemory);
  EXPECT_FALSE(b.ok());
  b = a;
  EXPECT_EQ(*b, "hello");
}

TEST(BitopsTest, LowestSetBit) {
  EXPECT_EQ(LowestSetBit(0), -1);
  EXPECT_EQ(LowestSetBit(1), 0);
  EXPECT_EQ(LowestSetBit(0b1000), 3);
}

TEST(BitopsTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(64), 64u);
}

// The byte-at-a-time CRC-32 (IEEE, reflected) that Crc32's slice-by-8 loop must reproduce.
uint32_t Crc32Bytewise(const uint8_t* data, size_t len, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; i++) {
    c ^= data[i];
    for (int k = 0; k < 8; k++) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// Every length from 0 to 4,200 bytes at every start offset 0-7 (so each alignment of the
// 8-byte loop and each tail length), whole and split in two chained calls.
TEST(Crc32Test, SliceBy8MatchesBytewiseAtEveryLengthAndOffset) {
  std::vector<uint8_t> buf(4200 + 8);
  Rng rng(42);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t off = 0; off < 8; off++) {
    for (size_t len = 0; len <= 4200; len++) {
      const uint8_t* p = buf.data() + off;
      const uint32_t want = Crc32Bytewise(p, len);
      ASSERT_EQ(Crc32(p, len), want) << "offset " << off << " length " << len;
      const size_t cut = len / 3;
      ASSERT_EQ(Crc32(p + cut, len - cut, Crc32(p, cut)), want)
          << "chained at " << cut << ", offset " << off << " length " << len;
    }
  }
  for (const uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    EXPECT_EQ(Crc32(buf.data() + 3, 1021, seed), Crc32Bytewise(buf.data() + 3, 1021, seed));
  }
}

TEST(SpscRingTest, PushPopSingleThread) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Pop(), std::nullopt);
  EXPECT_TRUE(ring.Push(1));
  EXPECT_TRUE(ring.Push(2));
  EXPECT_EQ(ring.Pop(), 1);
  EXPECT_EQ(ring.Pop(), 2);
  EXPECT_EQ(ring.Pop(), std::nullopt);
}

TEST(SpscRingTest, FillsToCapacity) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; i++) {
    EXPECT_TRUE(ring.Push(i));
  }
  EXPECT_FALSE(ring.Push(99));
  EXPECT_EQ(ring.Pop(), 0);
  EXPECT_TRUE(ring.Push(99));
}

TEST(SpscRingTest, FrontPeeks) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);
  ring.Push(5);
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 5);
  EXPECT_EQ(ring.SizeApprox(), 1u);
}

TEST(SpscRingTest, PushBurstMovesWhatFits) {
  SpscRing<int> ring(4);
  int first[3] = {1, 2, 3};
  EXPECT_EQ(ring.PushBurst(std::span<int>(first, 3)), 3u);
  int second[3] = {4, 5, 6};
  EXPECT_EQ(ring.PushBurst(std::span<int>(second, 3)), 1u);  // only one slot left
  EXPECT_EQ(ring.SizeApprox(), 4u);
  for (int want = 1; want <= 4; want++) {
    EXPECT_EQ(ring.Pop(), want);
  }
  EXPECT_EQ(ring.Pop(), std::nullopt);
}

TEST(SpscRingTest, PopBurstDrainsInOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(ring.Push(i));
  }
  int out[8] = {};
  EXPECT_EQ(ring.PopBurst(std::span<int>(out, 3)), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(ring.PopBurst(std::span<int>(out, 8)), 2u);  // partial: only 2 left
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 4);
  EXPECT_EQ(ring.PopBurst(std::span<int>(out, 8)), 0u);
  // Bursts interoperate with scalar ops across wraparound.
  for (int round = 0; round < 10; round++) {
    int vals[3] = {round, round + 100, round + 200};
    ASSERT_EQ(ring.PushBurst(std::span<int>(vals, 3)), 3u);
    ASSERT_EQ(ring.Pop(), round);
    ASSERT_EQ(ring.PopBurst(std::span<int>(out, 8)), 2u);
    ASSERT_EQ(out[0], round + 100);
    ASSERT_EQ(out[1], round + 200);
  }
}

TEST(SpscRingTest, CrossThreadBurstTransfersEverything) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 200'000;
  std::thread producer([&] {
    uint64_t next = 0;
    while (next < kCount) {
      uint64_t batch[32];
      const uint64_t n = std::min<uint64_t>(32, kCount - next);
      for (uint64_t i = 0; i < n; i++) {
        batch[i] = next + i;
      }
      next += ring.PushBurst(std::span<uint64_t>(batch, n));
      // Unpushed tail values are regenerated next round from `next`.
    }
  });
  uint64_t expected = 0;
  uint64_t out[64];
  while (expected < kCount) {
    const size_t n = ring.PopBurst(std::span<uint64_t>(out, 64));
    for (size_t i = 0; i < n; i++) {
      ASSERT_EQ(out[i], expected);
      expected++;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.EmptyApprox());
}

TEST(SpscRingTest, CrossThreadTransfersEverything) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 200'000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.Push(i)) {
        i++;
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    auto v = ring.Pop();
    if (v) {
      ASSERT_EQ(*v, expected);
      expected++;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.EmptyApprox());
}

TEST(ClockTest, MonotonicAdvances) {
  MonotonicClock clock;
  TimeNs a = clock.Now();
  TimeNs b = clock.Now();
  EXPECT_GE(b, a);
}

TEST(ClockTest, VirtualClockIsManual) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150u);
  clock.SetTime(10);
  EXPECT_EQ(clock.Now(), 10u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(3);
  for (int i = 0; i < 10'000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoolProbabilityRoughlyHolds) {
  Rng rng(5);
  int hits = 0;
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; i++) {
    if (rng.NextBool(0.3)) {
      hits++;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(ZipfTest, SkewsTowardLowKeys) {
  ZipfGenerator zipf(1000, 0.99, 123);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100'000; i++) {
    counts[zipf.Next()]++;
  }
  // Key 0 should be far more popular than the median key.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator zipf(10, 0.99, 9);
  for (int i = 0; i < 10'000; i++) {
    EXPECT_LT(zipf.Next(), 10u);
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.Mean(), 50.5, 0.001);
  EXPECT_NEAR(static_cast<double>(h.P50()), 50.0, 3.0);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99.0, 3.0);
}

TEST(HistogramTest, QuantilePrecisionWithinBucketBounds) {
  Histogram h;
  h.Record(1'000'000);  // 1 ms in ns
  EXPECT_EQ(h.count(), 1u);
  // Log-bucketed: ~1.6% relative precision.
  EXPECT_NEAR(static_cast<double>(h.P99()), 1'000'000.0, 1'000'000.0 * 0.02);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

}  // namespace
}  // namespace demi
